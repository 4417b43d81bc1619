#include "phpsrc/installer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/strings.h"

namespace joza::php {

namespace fs = std::filesystem;

namespace {

bool HasSourceExtension(const fs::path& path, const ScanOptions& options) {
  std::string ext = ToLower(path.extension().string());
  return std::find(options.extensions.begin(), options.extensions.end(),
                   ext) != options.extensions.end();
}

bool IsSkippedDirectory(const fs::path& path, const ScanOptions& options) {
  std::string name = path.filename().string();
  return std::find(options.skip_directories.begin(),
                   options.skip_directories.end(),
                   name) != options.skip_directories.end();
}

StatusOr<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Unavailable("cannot open " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

StatusOr<std::vector<SourceFile>> LoadSourceTree(const std::string& root,
                                                 const ScanOptions& options,
                                                 ScanReport* report) {
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    return Status::NotFound("not a directory: " + root);
  }
  std::vector<SourceFile> files;
  ScanReport local;
  ScanReport& r = report != nullptr ? *report : local;
  r = ScanReport{};

  fs::recursive_directory_iterator it(root, ec), end;
  if (ec) {
    return Status::Unavailable("cannot scan " + root + ": " + ec.message());
  }
  for (; it != end; it.increment(ec)) {
    if (ec) {
      return Status::Unavailable("scan error under " + root + ": " +
                                 ec.message());
    }
    const fs::directory_entry& entry = *it;
    if (entry.is_directory(ec)) {
      if (IsSkippedDirectory(entry.path(), options)) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (!entry.is_regular_file(ec)) continue;
    if (!HasSourceExtension(entry.path(), options)) {
      ++r.files_skipped;
      continue;
    }
    if (entry.file_size(ec) > options.max_file_bytes) {
      ++r.files_skipped;
      continue;
    }
    auto content = ReadFile(entry.path());
    if (!content.ok()) return content.status();
    ++r.files_scanned;
    r.bytes_scanned += content.value().size();
    r.scanned_paths.push_back(entry.path().string());
    files.push_back(SourceFile{entry.path().lexically_relative(root).string(),
                               std::move(content.value())});
  }
  // Deterministic order regardless of directory iteration order.
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  std::sort(r.scanned_paths.begin(), r.scanned_paths.end());
  return files;
}

StatusOr<FragmentSet> InstallFromDirectory(const std::string& root,
                                           const ScanOptions& options,
                                           ScanReport* report) {
  auto files = LoadSourceTree(root, options, report);
  if (!files.ok()) return files.status();
  return FragmentSet::FromSources(files.value());
}

}  // namespace joza::php
