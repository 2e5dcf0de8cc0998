#include "tools/analyze/cfg.h"

#include <cctype>
#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace airfair {
namespace analyze {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdent(const std::string& s) {
  return !s.empty() && (std::isalpha(static_cast<unsigned char>(s[0])) != 0 || s[0] == '_');
}

struct Token {
  std::string text;
  int line = 0;  // 1-based.
};

// Multi-character operators that must stay one token ("::" in particular —
// the parser distinguishes it from the ':' of labels and init lists).
const char* kMultiOps[] = {"->*", "<<=", ">>=", "...", "::", "->", "++", "--", "<<",
                           ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=",
                           "*=", "/=", "%=", "&=", "|=", "^="};

// Tokenizes stripped code lines. Preprocessor lines are skipped wholesale:
// their brace structure is conditional and would desynchronise the parser.
std::vector<Token> Tokenize(const std::vector<std::string>& code) {
  std::vector<Token> out;
  for (size_t li = 0; li < code.size(); ++li) {
    const std::string& line = code[li];
    const int line_no = static_cast<int>(li) + 1;
    size_t i = 0;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])) != 0) ++i;
    if (i < line.size() && line[i] == '#') continue;
    while (i < line.size()) {
      const char c = line[i];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++i;
        continue;
      }
      if (IsIdentChar(c)) {
        const size_t start = i;
        while (i < line.size() && IsIdentChar(line[i])) ++i;
        out.push_back(Token{line.substr(start, i - start), line_no});
        continue;
      }
      bool matched = false;
      for (const char* op : kMultiOps) {
        const size_t len = std::string(op).size();
        if (line.compare(i, len, op) == 0) {
          out.push_back(Token{op, line_no});
          i += len;
          matched = true;
          break;
        }
      }
      if (matched) continue;
      out.push_back(Token{std::string(1, c), line_no});
      ++i;
    }
  }
  return out;
}

bool IsControlKeyword(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" || s == "catch" ||
         s == "return" || s == "do" || s == "else" || s == "case" || s == "sizeof" ||
         s == "new" || s == "delete";
}

// ---------------------------------------------------------------------------
// Statement parser: tokens of one function body -> basic blocks.
// ---------------------------------------------------------------------------

class BodyParser {
 public:
  BodyParser(const std::vector<Token>& toks, size_t* pos, FunctionCfg* cfg)
      : toks_(toks), pos_(pos), cfg_(cfg) {
    cfg_->blocks.push_back(CfgBlock{0, {}, {}});  // Entry.
    cfg_->blocks.push_back(CfgBlock{1, {}, {}});  // Exit.
    cfg_->entry = 0;
    cfg_->exit = 1;
    cur_ = 0;
  }

  // Parses the compound statement at *pos_ (expects '{').
  void Run() {
    ParseCompound();
    if (cur_ != -1) Edge(cur_, cfg_->exit);
  }

 private:
  bool AtEnd() const { return *pos_ >= toks_.size(); }
  const Token& Peek() const { return toks_[*pos_]; }
  const std::string& PeekText() const { return toks_[*pos_].text; }
  Token Next() { return toks_[(*pos_)++]; }
  bool Accept(const char* t) {
    if (!AtEnd() && PeekText() == t) {
      ++*pos_;
      return true;
    }
    return false;
  }

  int NewBlock() {
    const int id = static_cast<int>(cfg_->blocks.size());
    cfg_->blocks.push_back(CfgBlock{id, {}, {}});
    return id;
  }

  void Edge(int from, int to) {
    if (from < 0 || to < 0) return;
    for (const int s : cfg_->blocks[static_cast<size_t>(from)].succs) {
      if (s == to) return;
    }
    cfg_->blocks[static_cast<size_t>(from)].succs.push_back(to);
  }

  // The current block, materialising an unreachable one after a
  // return/break/continue so parsing (and scope tracking) can continue.
  int Cur() {
    if (cur_ == -1) cur_ = NewBlock();
    return cur_;
  }

  void Append(std::string text, int line, bool is_return = false) {
    CfgStmt stmt;
    stmt.text = std::move(text);
    stmt.line = line;
    stmt.is_return = is_return;
    cfg_->blocks[static_cast<size_t>(Cur())].stmts.push_back(std::move(stmt));
  }

  // Consumes a balanced (...) / {...} / [...] group, appending its tokens
  // (including the delimiters) to `out`. Assumes the opener is at *pos_.
  void ConsumeBalanced(std::string* out) {
    const std::string open = PeekText();
    const std::string close = open == "(" ? ")" : open == "{" ? "}" : "]";
    int depth = 0;
    while (!AtEnd()) {
      const Token t = Next();
      if (out != nullptr) {
        if (!out->empty()) *out += ' ';
        *out += t.text;
      }
      if (t.text == open) ++depth;
      if (t.text == close && --depth == 0) return;
    }
  }

  void ParseCompound() {
    if (!Accept("{")) return;
    while (!AtEnd() && PeekText() != "}") {
      ParseStatement();
    }
    Accept("}");
  }

  void ParseStatement() {
    if (AtEnd()) return;
    const std::string& t = PeekText();
    if (t == "{") {
      ParseCompound();
      return;
    }
    if (t == ";") {
      Next();
      return;
    }
    if (t == "if") {
      ParseIf();
      return;
    }
    if (t == "while") {
      ParseWhile();
      return;
    }
    if (t == "do") {
      ParseDoWhile();
      return;
    }
    if (t == "for") {
      ParseFor();
      return;
    }
    if (t == "switch") {
      ParseSwitch();
      return;
    }
    if (t == "return") {
      ParseReturn();
      return;
    }
    if (t == "break" || t == "continue") {
      const Token kw = Next();
      Accept(";");
      Append(kw.text + " ;", kw.line);
      const std::vector<int>& stack = kw.text == "break" ? break_stack_ : continue_stack_;
      if (!stack.empty()) Edge(Cur(), stack.back());
      cur_ = -1;
      return;
    }
    if (t == "try") {
      ParseTry();
      return;
    }
    ParseExprStatement();
  }

  // Collects "( ... )" after a control keyword into `out` (without parsing
  // lambdas — control conditions do not define lambdas in this code base).
  void ConsumeParens(std::string* out) {
    if (!AtEnd() && PeekText() == "(") ConsumeBalanced(out);
  }

  void ParseIf() {
    const Token kw = Next();  // if
    Accept("constexpr");
    std::string cond;
    ConsumeParens(&cond);
    Append("if " + cond, kw.line);
    const int cond_block = Cur();
    const int then_block = NewBlock();
    Edge(cond_block, then_block);
    cur_ = then_block;
    ParseStatement();
    const int end_then = cur_;
    if (!AtEnd() && PeekText() == "else") {
      Next();
      const int else_block = NewBlock();
      Edge(cond_block, else_block);
      cur_ = else_block;
      ParseStatement();
      const int end_else = cur_;
      const int join = NewBlock();
      Edge(end_then, join);
      Edge(end_else, join);
      cur_ = (end_then == -1 && end_else == -1) ? -1 : join;
      return;
    }
    const int join = NewBlock();
    Edge(cond_block, join);
    Edge(end_then, join);
    cur_ = join;
  }

  void ParseWhile() {
    const Token kw = Next();  // while
    std::string cond;
    ConsumeParens(&cond);
    const int before = Cur();
    const int cond_block = NewBlock();
    Edge(before, cond_block);
    cur_ = cond_block;
    Append("while " + cond, kw.line);
    const int body = NewBlock();
    const int exit = NewBlock();
    Edge(cond_block, body);
    Edge(cond_block, exit);
    break_stack_.push_back(exit);
    continue_stack_.push_back(cond_block);
    cur_ = body;
    ParseStatement();
    Edge(cur_, cond_block);
    break_stack_.pop_back();
    continue_stack_.pop_back();
    cur_ = exit;
  }

  void ParseDoWhile() {
    const Token kw = Next();  // do
    const int before = Cur();
    const int body = NewBlock();
    Edge(before, body);
    const int cond_block = NewBlock();
    const int exit = NewBlock();
    break_stack_.push_back(exit);
    continue_stack_.push_back(cond_block);
    cur_ = body;
    ParseStatement();
    Edge(cur_, cond_block);
    break_stack_.pop_back();
    continue_stack_.pop_back();
    Accept("while");
    std::string cond;
    ConsumeParens(&cond);
    Accept(";");
    cur_ = cond_block;
    Append("do-while " + cond, kw.line);
    Edge(cond_block, body);  // Back edge.
    Edge(cond_block, exit);
    cur_ = exit;
  }

  void ParseFor() {
    const Token kw = Next();  // for
    std::string header;
    ConsumeParens(&header);
    const int before = Cur();
    const int head_block = NewBlock();
    Edge(before, head_block);
    cur_ = head_block;
    Append("for " + header, kw.line);
    const int body = NewBlock();
    const int exit = NewBlock();
    Edge(head_block, body);
    Edge(head_block, exit);
    break_stack_.push_back(exit);
    continue_stack_.push_back(head_block);
    cur_ = body;
    ParseStatement();
    Edge(cur_, head_block);  // Back edge (increment folded into the header).
    break_stack_.pop_back();
    continue_stack_.pop_back();
    cur_ = exit;
  }

  void ParseSwitch() {
    const Token kw = Next();  // switch
    std::string cond;
    ConsumeParens(&cond);
    Append("switch " + cond, kw.line);
    const int head = Cur();
    const int exit = NewBlock();
    if (!Accept("{")) {
      cur_ = exit;
      Edge(head, exit);
      return;
    }
    break_stack_.push_back(exit);
    bool seen_default = false;
    cur_ = -1;  // Code before the first label is unreachable.
    while (!AtEnd() && PeekText() != "}") {
      if (PeekText() == "case" || PeekText() == "default") {
        const bool is_default = PeekText() == "default";
        seen_default = seen_default || is_default;
        Next();
        // Consume the label expression up to the ':' (":: " stays one
        // token, so a plain ":" really ends the label).
        while (!AtEnd() && PeekText() != ":" && PeekText() != "{" && PeekText() != "}") Next();
        Accept(":");
        const int fallthrough_from = cur_;
        const int label_block = NewBlock();
        Edge(head, label_block);
        Edge(fallthrough_from, label_block);  // Fallthrough from the previous case.
        cur_ = label_block;
        continue;
      }
      ParseStatement();
    }
    Accept("}");
    break_stack_.pop_back();
    Edge(cur_, exit);  // Fall off the last case.
    if (!seen_default) Edge(head, exit);
    cur_ = exit;
  }

  void ParseReturn() {
    const Token kw = Next();  // return
    std::string text = "return";
    CollectExprTokens(&text);
    Accept(";");
    text += " ;";
    Append(text, kw.line, /*is_return=*/true);
    Edge(Cur(), cfg_->exit);
    cur_ = -1;
  }

  void ParseTry() {
    Next();  // try
    const int before = Cur();
    ParseCompound();  // The try body runs inline on the normal path.
    const int after_try = cur_;
    std::vector<int> catch_ends;
    while (!AtEnd() && PeekText() == "catch") {
      Next();
      ConsumeParens(nullptr);
      const int catch_block = NewBlock();
      // Approximation: an exception may skip any part of the try body.
      Edge(before, catch_block);
      cur_ = catch_block;
      ParseCompound();
      catch_ends.push_back(cur_);
    }
    const int join = NewBlock();
    Edge(after_try, join);
    for (const int e : catch_ends) Edge(e, join);
    cur_ = join;
  }

  // Consumes expression tokens until ';' at depth 0, descending into lambda
  // bodies (each becomes a nested FunctionCfg; the enclosing text keeps the
  // capture list plus a `<lambda#k>` placeholder so capture-initializer
  // moves stay visible here while body statements do not).
  void CollectExprTokens(std::string* text) {
    std::string prev;
    while (!AtEnd()) {
      const std::string& t = PeekText();
      if (t == ";") return;
      if (t == "}") return;  // Unterminated statement at scope end.
      if (t == "(" || t == "{") {
        // A '{' mid-expression is a brace initialiser, member-init or
        // inline aggregate — swallow it balanced. Parens likewise (their
        // contents may hold lambdas: scan inside).
        ConsumeGroupWithLambdas(text, &prev);
        continue;
      }
      if (t == "[" && LambdaIntroAhead(prev)) {
        ParseLambda(text);
        prev = ">";  // Placeholder behaves like a closed expression.
        continue;
      }
      const Token tok = Next();
      if (!text->empty()) *text += ' ';
      *text += tok.text;
      prev = tok.text;
    }
  }

  // Consumes a balanced ( ) or { } group token by token so nested lambda
  // intros are still recognised and parsed out.
  void ConsumeGroupWithLambdas(std::string* text, std::string* prev) {
    const std::string open = PeekText();
    const std::string close = open == "(" ? ")" : "}";
    std::string last = *prev;
    int depth = 0;
    while (!AtEnd()) {
      const std::string& t = PeekText();
      if (t == "[" && depth > 0 && LambdaIntroAhead(last)) {
        ParseLambda(text);
        // Move-assign a temporary: GCC 12 emits a spurious -Wrestrict for
        // operator=(const char*) once this loop is inlined into callers.
        last = std::string(">");
        continue;
      }
      const Token tok = Next();
      if (!text->empty()) *text += ' ';
      *text += tok.text;
      last = tok.text;
      if (tok.text == open) ++depth;
      if (tok.text == close && --depth == 0) break;
    }
    *prev = last;
  }

  // '[' starts a lambda when the previous token cannot end a subscripted
  // expression, and the bracket group is followed by '(' or '{'.
  bool LambdaIntroAhead(const std::string& prev) const {
    if (IsIdent(prev) && !IsControlKeyword(prev)) return false;
    if (prev == "]" || prev == ")") return false;
    // Attributes [[...]] are not lambdas.
    if (*pos_ + 1 < toks_.size() && toks_[*pos_ + 1].text == "[") return false;
    // Find the matching ']' and peek behind it.
    size_t i = *pos_;
    int depth = 0;
    while (i < toks_.size()) {
      if (toks_[i].text == "[") ++depth;
      if (toks_[i].text == "]" && --depth == 0) break;
      ++i;
    }
    if (i + 1 >= toks_.size()) return false;
    const std::string& after = toks_[i + 1].text;
    return after == "(" || after == "{" || after == "mutable" || after == "->";
  }

  // Parses "[captures] (params) specifiers { body }" at *pos_ into a nested
  // FunctionCfg and appends "[captures] <lambda#k>" to the enclosing text.
  void ParseLambda(std::string* text) {
    Next();  // '['
    std::string captures;
    int depth = 1;
    while (!AtEnd()) {
      const Token tok = Next();
      if (tok.text == "[") ++depth;
      if (tok.text == "]" && --depth == 0) break;
      if (!captures.empty()) captures += ' ';
      captures += tok.text;
    }
    if (!AtEnd() && PeekText() == "(") ConsumeBalanced(nullptr);  // Parameters.
    // Specifiers (mutable, noexcept, -> Type) up to the body.
    while (!AtEnd() && PeekText() != "{" && PeekText() != ";") Next();
    FunctionCfg lambda;
    lambda.name = "<lambda>";
    lambda.captures = captures;
    lambda.head = "[" + captures + "]";
    lambda.line = AtEnd() ? 0 : Peek().line;
    if (!AtEnd() && PeekText() == "{") {
      BodyParser nested(toks_, pos_, &lambda);
      nested.Run();
    }
    const size_t k = cfg_->lambdas.size();
    cfg_->lambdas.push_back(std::move(lambda));
    if (!text->empty()) *text += ' ';
    *text += "[ " + captures + " ] <lambda#" + std::to_string(k) + ">";
  }

  void ParseExprStatement() {
    const Token first = Peek();
    std::string text;
    CollectExprTokens(&text);
    Accept(";");
    text += " ;";
    Append(std::move(text), first.line);
  }

  const std::vector<Token>& toks_;
  size_t* pos_;
  FunctionCfg* cfg_;
  int cur_ = 0;
  std::vector<int> break_stack_;
  std::vector<int> continue_stack_;
};

// ---------------------------------------------------------------------------
// Function finder: scans the token stream for "declarator ( params ) ... {"
// heads and hands each body to the parser.
// ---------------------------------------------------------------------------

size_t MatchingParen(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == "(") ++depth;
    if (toks[i].text == ")" && --depth == 0) return i;
  }
  return toks.size();
}

// Walks forward from the token after the parameter list's ')' over trailing
// specifiers / annotations / a constructor init list; returns the index of
// the body '{' or npos when this is not a function definition.
size_t FindBodyBrace(const std::vector<Token>& toks, size_t after_params) {
  size_t i = after_params;
  while (i < toks.size()) {
    const std::string& t = toks[i].text;
    if (t == "{") return i;
    if (t == ";" || t == "=" || t == "," || t == ")" || t == "(") return std::string::npos;
    if (t == ":") {
      // Constructor member-init list: Name(args) or Name{args}, separated
      // by commas, then the body brace.
      ++i;
      while (i < toks.size()) {
        // Initializer name with qualifiers / template args.
        while (i < toks.size() &&
               (IsIdent(toks[i].text) || toks[i].text == "::" || toks[i].text == "<" ||
                toks[i].text == ">" || toks[i].text == ",")) {
          // A ',' only separates initializers after a group; inside this
          // loop it can only appear within template args — tolerated.
          ++i;
        }
        if (i >= toks.size()) return std::string::npos;
        if (toks[i].text == "{") {
          // Either an init brace or the body. An init brace directly
          // follows an identifier or '>'.
          const std::string& prev = toks[i - 1].text;
          if (!IsIdent(prev) && prev != ">") return i;
        }
        if (toks[i].text != "(" && toks[i].text != "{") return std::string::npos;
        // Consume the balanced initializer group.
        const std::string open = toks[i].text;
        const std::string close = open == "(" ? ")" : "}";
        int depth = 0;
        while (i < toks.size()) {
          if (toks[i].text == open) ++depth;
          if (toks[i].text == close && --depth == 0) {
            ++i;
            break;
          }
          ++i;
        }
        if (i < toks.size() && toks[i].text == "{") return i;
        if (i < toks.size() && toks[i].text == ",") {
          ++i;
          continue;
        }
        return std::string::npos;
      }
      return std::string::npos;
    }
    // Trailing specifiers, annotation macros (with optional argument
    // lists), attributes, ref-qualifiers, trailing return types.
    if (t == "const" || t == "noexcept" || t == "override" || t == "final" || t == "mutable" ||
        t == "&" || t == "&&" || t == "->" || t == "*" || t == "::" || t == "<" || t == ">" ||
        IsIdent(t)) {
      ++i;
      if (i < toks.size() && toks[i].text == "(") {
        i = MatchingParen(toks, i) + 1;  // noexcept(...) / AF_EXCLUDES(...).
      }
      continue;
    }
    if (t == "[") {  // [[nodiscard]]-style attribute.
      int depth = 0;
      while (i < toks.size()) {
        if (toks[i].text == "[") ++depth;
        if (toks[i].text == "]" && --depth == 0) {
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    return std::string::npos;
  }
  return std::string::npos;
}

// Start of the declaration the name at `name_idx` belongs to: walk back to
// the previous statement/body boundary.
size_t DeclStart(const std::vector<Token>& toks, size_t name_idx) {
  size_t i = name_idx;
  while (i > 0) {
    const std::string& t = toks[i - 1].text;
    if (t == ";" || t == "{" || t == "}" || t == ":") break;
    --i;
  }
  return i;
}

std::string JoinTokens(const std::vector<Token>& toks, size_t begin, size_t end) {
  std::string out;
  for (size_t i = begin; i < end; ++i) {
    if (!out.empty()) out += ' ';
    out += toks[i].text;
  }
  return out;
}

}  // namespace

std::vector<FunctionCfg> BuildFileCfgs(const std::vector<std::string>& code) {
  const std::vector<Token> toks = Tokenize(code);
  std::vector<FunctionCfg> out;
  size_t i = 0;
  while (i < toks.size()) {
    if (toks[i].text != "(") {
      ++i;
      continue;
    }
    // Candidate parameter list: the token before must be a (non-control)
    // identifier, or an operator spelling ("operator ( )" / "operator ==").
    size_t name_idx = std::string::npos;
    std::string name;
    if (i > 0 && IsIdent(toks[i - 1].text) && !IsControlKeyword(toks[i - 1].text)) {
      name_idx = i - 1;
      name = toks[i - 1].text;
    } else if (i > 2 && toks[i - 1].text == ")" && toks[i - 2].text == "(" &&
               toks[i - 3].text == "operator") {
      name_idx = i - 3;
      name = "operator()";
    } else if (i > 1 && !IsIdent(toks[i - 1].text) && toks[i - 1].text != ")" &&
               toks[i - 1].text != "]" && i >= 2 && toks[i - 2].text == "operator") {
      name_idx = i - 2;
      name = "operator" + toks[i - 1].text;
    }
    if (name_idx == std::string::npos) {
      ++i;
      continue;
    }
    const size_t close = MatchingParen(toks, i);
    if (close >= toks.size()) {
      ++i;
      continue;
    }
    const size_t body = FindBodyBrace(toks, close + 1);
    if (body == std::string::npos) {
      ++i;
      continue;
    }
    FunctionCfg cfg;
    cfg.name = name;
    cfg.head = JoinTokens(toks, DeclStart(toks, name_idx), body);
    cfg.line = toks[body].line;
    size_t pos = body;
    BodyParser parser(toks, &pos, &cfg);
    parser.Run();
    out.push_back(std::move(cfg));
    i = pos;
  }
  return out;
}

std::string CfgToString(const FunctionCfg& cfg) {
  std::ostringstream out;
  out << cfg.name << " (line " << cfg.line << ")\n";
  for (const CfgBlock& b : cfg.blocks) {
    out << "  B" << b.id << " ->";
    for (const int s : b.succs) out << " B" << s;
    out << "\n";
    for (const CfgStmt& s : b.stmts) {
      out << "    [" << s.line << "] " << s.text << "\n";
    }
  }
  for (size_t k = 0; k < cfg.lambdas.size(); ++k) {
    out << "  lambda#" << k << ":\n" << CfgToString(cfg.lambdas[k]);
  }
  return out.str();
}

}  // namespace analyze
}  // namespace airfair
