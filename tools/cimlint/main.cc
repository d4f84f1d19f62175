// cimlint CLI.
//
//   cimlint --root <repo> [--format=text|sarif] [subdir...]
//
// The report goes to stdout (redirect it to keep a SARIF file); the verdict
// line goes to stderr. A finding is accepted only by an include-site
// `// cimlint: allow(<rule>)` comment, never by a flag.
//
// Exit codes: 0 clean, 1 findings, 2 usage/config error (so a typo'd --root
// or a removed option cannot pass as a clean scan).
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "cimlint.h"

namespace {

int Usage() {
  std::cerr << "usage: cimlint --root <repo-root> [--format=text|sarif]\n"
               "               [subdir...]\n"
               "default subdirs: src bench examples tests tools\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::string format = "text";
  std::vector<std::string> subdirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(std::strlen("--format="));
    } else if (arg == "--help" || arg == "-h") {
      return Usage();
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "cimlint: unknown option '" << arg << "'\n";
      return Usage();
    } else {
      subdirs.push_back(arg);
    }
  }
  if (root.empty()) return Usage();
  if (format != "text" && format != "sarif") {
    std::cerr << "cimlint: unknown format '" << format << "'\n";
    return Usage();
  }
  if (subdirs.empty()) subdirs = {"src", "bench", "examples", "tests", "tools"};

  if (!std::filesystem::is_directory(root)) {
    std::cerr << "cimlint: root '" << root << "' is not a directory\n";
    return 2;
  }
  bool scanned_any = false;
  for (const std::string& subdir : subdirs) {
    if (std::filesystem::is_directory(std::filesystem::path(root) / subdir)) {
      scanned_any = true;
    }
  }
  if (!scanned_any) {
    std::cerr << "cimlint: none of the requested subdirs exist under '" << root
              << "'\n";
    return 2;
  }

  const std::vector<cimlint::Finding> findings =
      cimlint::LintTree(root, subdirs);
  if (format == "sarif") {
    std::cout << cimlint::ToSarif(findings);
  } else {
    for (const cimlint::Finding& f : findings) {
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
  }
  // Keep the pass/fail verdict visible even when stdout is a machine format
  // redirected to a file.
  std::cerr << "cimlint: " << findings.size() << " finding(s)\n";
  return findings.empty() ? 0 : 1;
}
