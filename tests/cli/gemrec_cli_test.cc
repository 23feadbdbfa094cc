// Runs the built `gemrec` binary as a subprocess and checks what a
// user sees at the process boundary: exit codes and error messages for
// missing and malformed flags, and for a model the server cannot serve.
// The flag cases fail before any dataset, model or socket is touched;
// the model case builds its own tiny city and model with the binary.

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace gemrec {
namespace {

struct CliRun {
  int exit_code = -1;  // -1 when the process did not exit normally
  std::string output;  // stdout and stderr, interleaved
};

CliRun RunGemrec(const std::string& args) {
  const std::string command =
      "'" + std::string(GEMREC_CLI_PATH) + "' " + args + " 2>&1";
  CliRun run;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[512];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    run.output.append(buf, n);
  }
  const int status = ::pclose(pipe);
  if (status != -1 && WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

TEST(GemrecCliTest, NoArgumentsPrintsUsageAndExitsTwo) {
  const CliRun run = RunGemrec("");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("usage:"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("gemrec serve"), std::string::npos);
}

TEST(GemrecCliTest, ServeWithoutListenIsAUsageError) {
  // serve has one mode, the network server; the paths need not exist
  // because the missing --listen is reported before anything loads.
  const CliRun run = RunGemrec("serve --data no-such-dir --model no-such");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("--listen"), std::string::npos) << run.output;
}

TEST(GemrecCliTest, MalformedIntegerFlagFailsNamingTheFlag) {
  // Port 1 has no shard behind it: a flag that slipped through would
  // fail later with the unreachable-shard error instead.
  const std::string coordinate =
      "coordinate --shards 127.0.0.1:1 --listen 127.0.0.1:0 ";
  for (const std::string flag :
       {"--shard-deadline-ms -5", "--reactors 2x", "--breaker-threshold ''",
        "--max-in-flight 99999999999", "--idle-timeout-ms +7"}) {
    SCOPED_TRACE(flag);
    const CliRun run = RunGemrec(coordinate + flag);
    EXPECT_EQ(run.exit_code, 1);
    const std::string name = flag.substr(0, flag.find(' '));
    EXPECT_NE(run.output.find(name + " expects"), std::string::npos)
        << run.output;
  }
}

TEST(GemrecCliTest, ServeRefusesAModelWiderThanTheQuantizedIndex) {
  // gemrec train writes a valid 520-dim model; serve must refuse it
  // with an error naming both widths instead of aborting in the
  // snapshot build. The listener is never opened.
  namespace fs = std::filesystem;
  std::string dir_template =
      (fs::temp_directory_path() / "gemrec_cli_XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir_template.data()), nullptr);
  const fs::path dir(dir_template);
  const std::string city = "'" + (dir / "city").string() + "'";
  const std::string model = "'" + (dir / "wide.bin").string() + "'";

  const CliRun generate =
      RunGemrec("generate --scale 0.02 --out " + city);
  ASSERT_EQ(generate.exit_code, 0) << generate.output;
  const CliRun train = RunGemrec("train --data " + city + " --model " +
                                 model + " --dim 520 --samples 1000");
  ASSERT_EQ(train.exit_code, 0) << train.output;

  const CliRun serve = RunGemrec("serve --data " + city + " --model " +
                                 model + " --listen 127.0.0.1:0");
  EXPECT_EQ(serve.exit_code, 1) << serve.output;
  EXPECT_NE(serve.output.find("520"), std::string::npos) << serve.output;
  EXPECT_NE(serve.output.find("512"), std::string::npos) << serve.output;

  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace gemrec
