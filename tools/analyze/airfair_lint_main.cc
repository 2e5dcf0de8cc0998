// CLI for the vendored lint engine (tools/analyze/lint.h).
//
// Usage: airfair_lint [--root DIR] [--json] [--format=github] [--list-rules] [paths...]
//   paths default to `src bench tests tools` relative to --root (default .).
//   --format=github emits ::error workflow commands so findings surface as
//   inline annotations on the pull request.
// Exit codes: 0 clean, 1 findings, 2 usage error (including a path that
// does not exist, so a renamed directory cannot pass as clean).

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "tools/analyze/lint.h"

namespace {

// GitHub workflow-command escaping. Message data escapes %, CR, LF;
// property values (file=..., title=...) additionally escape ':' and ','.
std::string GithubEscape(const std::string& s, bool property) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '%': out += "%25"; break;
      case '\r': out += "%0D"; break;
      case '\n': out += "%0A"; break;
      case ':':
        out += property ? "%3A" : ":";
        break;
      case ',':
        out += property ? "%2C" : ",";
        break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  airfair::analyze::LintOptions options;
  bool json = false;
  bool github = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--format=github") {
      github = true;
    } else if (arg == "--list-rules") {
      for (const auto& rule : airfair::analyze::AllRules()) {
        std::printf("%-20s %s\n", rule.id.c_str(), rule.summary.c_str());
      }
      return 0;
    } else if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--root needs a directory\n");
        return 2;
      }
      options.repo_root = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: airfair_lint [--root DIR] [--json] [--format=github] [--list-rules] "
          "[paths...]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", arg.c_str());
      return 2;
    } else {
      options.roots.push_back(arg);
    }
  }
  if (options.roots.empty()) {
    options.roots = {"src", "bench", "tests", "tools"};
  }
  for (const std::string& root : options.roots) {
    const std::filesystem::path path = std::filesystem::path(options.repo_root) / root;
    if (!std::filesystem::exists(path)) {
      std::fprintf(stderr, "airfair_lint: %s does not exist\n", path.string().c_str());
      return 2;
    }
  }

  const auto start = std::chrono::steady_clock::now();
  const airfair::analyze::LintResult result = airfair::analyze::RunLint(options);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  if (json) {
    std::printf("%s\n", airfair::analyze::ResultToJson(result).c_str());
  } else if (github) {
    // ::error commands render as inline annotations on the PR diff. The
    // human-readable line follows on stderr so raw logs stay greppable.
    for (const auto& finding : result.findings) {
      std::printf("::error file=%s,line=%d,title=airfair-lint %s::%s\n",
                  GithubEscape(finding.file, /*property=*/true).c_str(),
                  finding.line > 0 ? finding.line : 1,
                  GithubEscape(finding.rule, /*property=*/true).c_str(),
                  GithubEscape(finding.message, /*property=*/false).c_str());
    }
    std::fprintf(stderr, "airfair_lint: %zu finding(s) in %d file(s) (%.0f ms)\n",
                 result.findings.size(), result.files_scanned, wall_ms);
  } else {
    for (const auto& finding : result.findings) {
      std::printf("%s:%d: [%s] %s\n", finding.file.c_str(), finding.line, finding.rule.c_str(),
                  finding.message.c_str());
    }
    std::fprintf(stderr, "airfair_lint: %zu finding(s) in %d file(s) (%.0f ms)\n",
                 result.findings.size(), result.files_scanned, wall_ms);
  }
  return result.findings.empty() ? 0 : 1;
}
