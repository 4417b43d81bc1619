// Filesystem installer (Section IV-A).
//
// "A web application in PHP is typically a collection of PHP source code
// files residing in one top-level directory and several subdirectories.
// Joza recursively parses all source code files reachable from the top
// directory." This module is that step: a recursive scan that loads
// every PHP-like source file and extracts the fragment vocabulary.
#pragma once

#include <string>
#include <vector>

#include "phpsrc/fragments.h"
#include "util/status.h"

namespace joza::php {

struct ScanOptions {
  // File extensions treated as source (lowercase, with dot).
  std::vector<std::string> extensions = {".php", ".inc", ".phtml"};
  // Directories skipped entirely (VCS internals, caches).
  std::vector<std::string> skip_directories = {".git", ".svn", "cache"};
  // Files larger than this are skipped (matches production installers that
  // refuse to parse blobs mislabelled as source).
  std::size_t max_file_bytes = 8u << 20;
};

struct ScanReport {
  std::size_t files_scanned = 0;
  std::size_t files_skipped = 0;
  std::size_t bytes_scanned = 0;
  std::vector<std::string> scanned_paths;
};

// Loads all source files under `root` (recursively).
StatusOr<std::vector<SourceFile>> LoadSourceTree(const std::string& root,
                                                 const ScanOptions& options,
                                                 ScanReport* report);

// Full installation: scan + fragment extraction in one call.
StatusOr<FragmentSet> InstallFromDirectory(const std::string& root,
                                           const ScanOptions& options = {},
                                           ScanReport* report = nullptr);

}  // namespace joza::php
