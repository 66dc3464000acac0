#ifndef XCRYPT_TESTS_TEST_DIR_H_
#define XCRYPT_TESTS_TEST_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace xcrypt {

/// A scratch directory private to the running test case:
/// TempDir()/<suite>.<case>.<pid>, created empty on construction and
/// removed with everything in it on destruction. ctest runs every case as
/// its own process, often several at once, so a directory shared between
/// cases lets one process rewrite or delete files another has open or
/// mapped. Suite, case and pid together keep parameterized instances and
/// concurrent runs of the same binary apart.
class TestDir {
 public:
  TestDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "." +
                       info->name() + "." +
                       std::to_string(static_cast<long>(::getpid()));
    // Parameterized names carry '/' separators.
    std::replace(name.begin(), name.end(), '/', '_');
    path_ = std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }

  ~TestDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

  /// Path of `name` inside the directory.
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace xcrypt

#endif  // XCRYPT_TESTS_TEST_DIR_H_
