#include "phpsrc/installer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "resilience/snapshot.h"

namespace joza::php {
namespace {

namespace fs = std::filesystem;

class InstallerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("joza_installer_test_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_ / "wp-content" / "plugins" / "demo");
    fs::create_directories(root_ / ".git");
    Write("index.php", "<?php $q = 'SELECT * FROM wp_posts WHERE id = ';");
    Write("wp-content/plugins/demo/demo.php",
          "<?php $q = \"SELECT meta FROM demo WHERE k = '$k' LIMIT 1\";");
    Write("readme.txt", "'SELECT should not be extracted from txt'");
    Write(".git/config", "$x = 'SELECT nothing FROM vcs';");
  }

  void TearDown() override { fs::remove_all(root_); }

  void Write(const std::string& rel, const std::string& content) {
    std::ofstream out(root_ / rel);
    out << content;
  }

  fs::path root_;
};

TEST_F(InstallerTest, RecursiveScanExtractsFragments) {
  ScanReport report;
  auto set = InstallFromDirectory(root_.string(), {}, &report);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(report.files_scanned, 2u);
  EXPECT_TRUE(set->Contains("SELECT * FROM wp_posts WHERE id = "));
  EXPECT_TRUE(set->Contains("SELECT meta FROM demo WHERE k = '"));
  EXPECT_TRUE(set->Contains("' LIMIT 1"));
}

TEST_F(InstallerTest, NonSourceFilesIgnored) {
  auto set = InstallFromDirectory(root_.string());
  ASSERT_TRUE(set.ok());
  for (const Fragment& f : set->fragments()) {
    EXPECT_EQ(f.text.find("not be extracted"), std::string::npos);
    EXPECT_EQ(f.text.find("vcs"), std::string::npos);
  }
}

TEST_F(InstallerTest, SkipDirectoriesHonored) {
  // .git is skipped even though its file ends in no extension anyway; add a
  // .php inside to prove the directory rule, not the extension rule, wins.
  Write(".git/hook.php", "<?php $q = 'SELECT sneaky FROM vcs2';");
  auto set = InstallFromDirectory(root_.string());
  ASSERT_TRUE(set.ok());
  for (const Fragment& f : set->fragments()) {
    EXPECT_EQ(f.text.find("vcs2"), std::string::npos);
  }
}

TEST_F(InstallerTest, SourcePathsAreRelative) {
  auto files = LoadSourceTree(root_.string(), {}, nullptr);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 2u);
  EXPECT_EQ((*files)[0].path, "index.php");
  EXPECT_EQ((*files)[1].path, "wp-content/plugins/demo/demo.php");
}

TEST_F(InstallerTest, MissingDirectoryFails) {
  auto set = InstallFromDirectory((root_ / "nope").string());
  EXPECT_FALSE(set.ok());
}

TEST_F(InstallerTest, OversizeFilesSkipped) {
  ScanOptions options;
  options.max_file_bytes = 8;
  ScanReport report;
  auto set = InstallFromDirectory(root_.string(), options, &report);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(report.files_scanned, 0u);
  EXPECT_GE(report.files_skipped, 2u);
}

// joza_scan persists the scanned vocabulary as a ruleset snapshot and
// joza_check loads it back.
TEST_F(InstallerTest, SaveLoadRoundTrip) {
  auto set = InstallFromDirectory(root_.string());
  ASSERT_TRUE(set.ok());
  const std::string path = (root_ / "fragments.snap").string();
  ASSERT_TRUE(resilience::SaveRulesetSnapshot(path, set.value(), 0).ok());
  auto loaded = resilience::LoadRulesetSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->fragments.size(), set->size());
  for (const Fragment& f : set->fragments()) {
    EXPECT_TRUE(loaded->fragments.Contains(f.text)) << f.text;
  }
  // Provenance survives.
  EXPECT_EQ(loaded->fragments.fragments()[0].source_path,
            set->fragments()[0].source_path);
}

TEST_F(InstallerTest, LoadRejectsCorruptFiles) {
  const std::string path = (root_ / "bad.snap").string();
  std::ofstream(path) << "not a fragment file";
  EXPECT_FALSE(resilience::LoadRulesetSnapshot(path).ok());
  std::ofstream(path, std::ios::trunc)
      << std::string(resilience::kSnapshotMagic,
                     sizeof(resilience::kSnapshotMagic));
  EXPECT_FALSE(resilience::LoadRulesetSnapshot(path).ok());
  // One flipped byte of a scanned vocabulary: "SELECT" becomes "sELECT".
  auto set = InstallFromDirectory(root_.string());
  ASSERT_TRUE(set.ok());
  std::string image = resilience::EncodeRulesetSnapshot(set.value(), 0);
  const std::size_t at = image.find("SELECT");
  ASSERT_NE(at, std::string::npos);
  image[at] = 's';
  std::ofstream(path, std::ios::binary | std::ios::trunc) << image;
  EXPECT_FALSE(resilience::LoadRulesetSnapshot(path).ok());
  EXPECT_FALSE(
      resilience::LoadRulesetSnapshot((root_ / "missing.snap").string()).ok());
}

}  // namespace
}  // namespace joza::php
