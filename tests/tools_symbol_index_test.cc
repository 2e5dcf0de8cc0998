// Tests for the lint engine's per-file symbol index
// (tools/analyze/symbol_index.h): scope tracking, field/static
// classification and annotation detection. These fixtures pin the parsing
// contract the guarded-field-discipline rule builds on.

#include "tools/analyze/symbol_index.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "tools/analyze/lint.h"

namespace airfair {
namespace analyze {
namespace {

// Indexes one file's raw text, stripped by the same comment/string stripper
// the lint engine runs.
SymbolIndex Build(const std::string& text) {
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::istringstream in(text);
  std::string line;
  bool in_block = false;
  while (std::getline(in, line)) {
    raw.push_back(line);
    code.push_back(StripCodeLine(line, &in_block));
  }
  return BuildSymbolIndex(code, raw);
}

const ClassSymbol* FindClass(const SymbolIndex& index, const std::string& name) {
  for (const ClassSymbol& c : index.classes) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const FieldSymbol* FindField(const ClassSymbol& cls, const std::string& name) {
  for (const FieldSymbol& f : cls.fields) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

TEST(SymbolIndex, ClassesFieldsAndFlags) {
  const SymbolIndex index = Build(
      "namespace airfair {\n"
      "class Registry {\n"
      " public:\n"
      "  void Get();\n"  // Method: not a field.
      " private:\n"
      "  std::mutex raw_mu_;\n"
      "  Mutex mu_;\n"
      "  std::atomic<int> hits_{0};\n"
      "  static int total_;\n"
      "  static constexpr int kMax = 8;\n"
      "  bool done_ = false;\n"
      "};\n"
      "}  // namespace airfair\n");
  const ClassSymbol* cls = FindClass(index, "Registry");
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(cls->line, 2);
  EXPECT_FALSE(cls->is_enum);
  EXPECT_EQ(cls->fields.size(), 6u);
  EXPECT_EQ(FindField(*cls, "Get"), nullptr);

  const FieldSymbol* raw_mu = FindField(*cls, "raw_mu_");
  ASSERT_NE(raw_mu, nullptr);
  EXPECT_TRUE(raw_mu->is_raw_mutex);
  EXPECT_EQ(raw_mu->line, 6);

  const FieldSymbol* mu = FindField(*cls, "mu_");
  ASSERT_NE(mu, nullptr);
  EXPECT_TRUE(mu->is_wrapped_mutex);
  EXPECT_FALSE(mu->is_raw_mutex);

  const FieldSymbol* hits = FindField(*cls, "hits_");
  ASSERT_NE(hits, nullptr);
  EXPECT_TRUE(hits->is_atomic);
  EXPECT_FALSE(hits->has_annotation);

  const FieldSymbol* total = FindField(*cls, "total_");
  ASSERT_NE(total, nullptr);
  EXPECT_TRUE(total->is_static);
  EXPECT_FALSE(total->is_const);

  const FieldSymbol* kmax = FindField(*cls, "kMax");
  ASSERT_NE(kmax, nullptr);
  EXPECT_TRUE(kmax->is_const);

  const FieldSymbol* done = FindField(*cls, "done_");
  ASSERT_NE(done, nullptr);
  EXPECT_FALSE(done->is_static);
  EXPECT_FALSE(done->is_atomic);
}

TEST(SymbolIndex, AnnotationOnDeclLineOrLineAbove) {
  const SymbolIndex index =
      Build("class Guarded {\n"
            "  int table_ AF_GUARDED_BY(mu_);\n"
            "  std::atomic<int> fast_ AF_ATOMIC{0};\n"
            "  // AF_GUARDED_BY(mu_) — taken and released in Lock()/Unlock()\n"
            "  int marked_above_;\n"
            "  int bare_;\n"
            "};\n");
  const ClassSymbol* cls = FindClass(index, "Guarded");
  ASSERT_NE(cls, nullptr);
  EXPECT_TRUE(FindField(*cls, "table_")->has_annotation);
  EXPECT_TRUE(FindField(*cls, "fast_")->has_annotation);
  EXPECT_TRUE(FindField(*cls, "marked_above_")->has_annotation);
  EXPECT_FALSE(FindField(*cls, "bare_")->has_annotation);
}

TEST(SymbolIndex, AttributeMacrosInClassHeadsAndScopedEnums) {
  const SymbolIndex index = Build(
      "class AF_CAPABILITY(\"mutex\") Mutex {\n"
      " public:\n"
      "  void Lock();\n"
      "};\n"
      "class Derived final : public Mutex {\n"
      "  int x_;\n"
      "};\n"
      "enum class Color : int {\n"
      "  kRed,\n"
      "  kBlue,\n"
      "};\n"
      "class Forward;\n");
  EXPECT_NE(FindClass(index, "Mutex"), nullptr);
  const ClassSymbol* derived = FindClass(index, "Derived");
  ASSERT_NE(derived, nullptr);
  EXPECT_NE(FindField(*derived, "x_"), nullptr);
  const ClassSymbol* color = FindClass(index, "Color");
  ASSERT_NE(color, nullptr);
  EXPECT_TRUE(color->is_enum);
  EXPECT_TRUE(color->fields.empty());  // Enumerators are not fields.
  // Forward declarations open no scope and index no class.
  EXPECT_EQ(FindClass(index, "Forward"), nullptr);
  EXPECT_EQ(index.classes.size(), 3u);
}

TEST(SymbolIndex, StaticsAndNamespaceGlobals) {
  const SymbolIndex index =
      Build("namespace airfair {\n"
            "namespace {\n"
            "std::atomic<int> g_level AF_ATOMIC{0};\n"  // No `static` keyword.
            "const char* kName = \"x\";\n"  // Not concurrency-relevant.
            "}  // namespace\n"
            "int Get() {\n"
            "  static int calls = 0;\n"
            "  static thread_local int depth = 0;\n"
            "  return calls + depth;\n"
            "}\n"
            "}  // namespace airfair\n");
  ASSERT_EQ(index.statics.size(), 3u);
  EXPECT_EQ(index.statics[0].name, "g_level");
  EXPECT_FALSE(index.statics[0].is_function_local);
  EXPECT_TRUE(index.statics[0].is_atomic);
  EXPECT_TRUE(index.statics[0].has_annotation);
  EXPECT_EQ(index.statics[1].name, "calls");
  EXPECT_TRUE(index.statics[1].is_function_local);
  EXPECT_FALSE(index.statics[1].has_annotation);
  EXPECT_EQ(index.statics[2].name, "depth");
  EXPECT_TRUE(index.statics[2].is_thread_local);
}

}  // namespace
}  // namespace analyze
}  // namespace airfair
