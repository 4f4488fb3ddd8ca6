/**
 * @file
 * Tests for the campaign subsystem (src/exp/): scenario parsing and
 * sweep expansion, profile layering, config hashing, the JSONL result
 * store, shape checking, report/diff, and — through the real
 * wwtcmp_campaign binary — crash isolation, retry, and resume.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

#include "exp/registry.hh"
#include "exp/report.hh"
#include "exp/scenario.hh"
#include "exp/store.hh"

using namespace wwt;

namespace
{

/** A unique scratch directory, removed on destruction. */
struct TempDir {
    std::string path;

    TempDir()
    {
        std::string tmpl = ::testing::TempDir() + "wwtexpXXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        path = ::mkdtemp(buf.data());
    }
    ~TempDir()
    {
        std::system(("rm -rf '" + path + "'").c_str());
    }
};

std::string
writeFile(const std::string& path, const std::string& text)
{
    std::ofstream os(path);
    os << text;
    return path;
}

/** A minimal valid campaign document around @p scenarios. */
std::string
campaignDoc(const std::string& scenarios,
            const std::string& defaults = R"({"procs": 2})")
{
    return std::string(R"({"schema": "wwtcmp.campaign/1",)") +
           R"("name": "t", "defaults": )" + defaults +
           R"(, "scenarios": [)" + scenarios + "]}";
}

int
runBinary(const std::string& args)
{
    std::string cmd = std::string(WWTCMP_CAMPAIGN_BIN) + " " + args +
                      " > /dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

bool
fileExists(const std::string& path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

/** True when /dev/full exists, so a write to it fails with ENOSPC. */
bool
haveDevFull()
{
    return ::access("/dev/full", W_OK) == 0;
}

std::size_t
lineCount(const std::string& path)
{
    std::ifstream in(path);
    std::size_t n = 0;
    std::string line;
    while (std::getline(in, line))
        ++n;
    return n;
}

} // namespace

// ------------------------------------------------------------------
// Scenario model.
// ------------------------------------------------------------------

TEST(CampaignParse, SweepExpandsCartesianProductInOrder)
{
    TempDir t;
    std::string path = writeFile(
        t.path + "/c.json",
        campaignDoc(R"({"id": "g", "app": "gauss",
                        "machine": ["mp", "sm"],
                        "cache_kb": [256, 1024], "size": 64})"));
    exp::Campaign c = exp::loadCampaign(path, "paper");
    ASSERT_EQ(c.scenarios.size(), 4u);
    // machine varies slower than cache_kb (kSweepable order).
    EXPECT_EQ(c.scenarios[0].id, "g-mp.cache_kb=256");
    EXPECT_EQ(c.scenarios[1].id, "g-mp.cache_kb=1024");
    EXPECT_EQ(c.scenarios[2].id, "g-sm.cache_kb=256");
    EXPECT_EQ(c.scenarios[3].id, "g-sm.cache_kb=1024");
    EXPECT_EQ(c.scenarios[1].cacheKb, 1024u);
    EXPECT_EQ(c.scenarios[2].machine, "sm");
    EXPECT_EQ(c.scenarios[0].procs, 2u); // from defaults
    EXPECT_EQ(c.scenarios[0].size, 64u);
}

TEST(CampaignParse, ProfileLayeringLastWins)
{
    TempDir t;
    std::string path = writeFile(
        t.path + "/c.json",
        std::string(R"({"schema": "wwtcmp.campaign/1", "name": "t",
          "defaults": {"procs": 32, "size": 1000},
          "profiles": {"smoke": {"procs": 4}},
          "scenarios": [
            {"id": "a", "app": "em3d",
             "profiles": {"smoke": {"size": 16}}}
          ]})"));
    exp::Campaign paper = exp::loadCampaign(path, "paper");
    ASSERT_EQ(paper.scenarios.size(), 1u);
    EXPECT_EQ(paper.scenarios[0].procs, 32u);
    EXPECT_EQ(paper.scenarios[0].size, 1000u);

    exp::Campaign smoke = exp::loadCampaign(path, "smoke");
    ASSERT_EQ(smoke.scenarios.size(), 1u);
    EXPECT_EQ(smoke.scenarios[0].procs, 4u);  // campaign profile
    EXPECT_EQ(smoke.scenarios[0].size, 16u);  // scenario profile
}

TEST(CampaignParse, RepeatExpandsWithStableSuffixes)
{
    TempDir t;
    std::string path = writeFile(
        t.path + "/c.json",
        campaignDoc(R"({"id": "r", "app": "em3d", "repeat": 3})"));
    exp::Campaign c = exp::loadCampaign(path, "paper");
    ASSERT_EQ(c.scenarios.size(), 3u);
    EXPECT_EQ(c.scenarios[0].id, "r.r0");
    EXPECT_EQ(c.scenarios[2].id, "r.r2");
    // Repeats are identical configurations by construction.
    EXPECT_EQ(c.scenarios[0].configHash(), c.scenarios[2].configHash());
}

TEST(CampaignParse, StrictErrors)
{
    TempDir t;
    auto load = [&](const std::string& doc) {
        std::string path = writeFile(t.path + "/c.json", doc);
        exp::loadCampaign(path, "paper");
    };
    // Unknown scenario key.
    EXPECT_THROW(load(campaignDoc(R"({"app": "em3d", "sise": 4})")),
                 std::runtime_error);
    // Unknown app / machine / tree / inject.
    EXPECT_THROW(load(campaignDoc(R"({"app": "emd3"})")),
                 std::runtime_error);
    EXPECT_THROW(load(campaignDoc(R"({"app": "em3d",
                                      "machine": "numa"})")),
                 std::runtime_error);
    EXPECT_THROW(load(campaignDoc(R"({"app": "em3d",
                                      "tree": "ternary"})")),
                 std::runtime_error);
    EXPECT_THROW(load(campaignDoc(R"({"app": "em3d",
                                      "inject": "sometimes"})")),
                 std::runtime_error);
    // Duplicate ids, empty sweeps, bad schema.
    EXPECT_THROW(load(campaignDoc(R"({"id": "x", "app": "em3d"},
                                     {"id": "x", "app": "gauss"})")),
                 std::runtime_error);
    EXPECT_THROW(load(campaignDoc(R"({"app": "em3d",
                                      "cache_kb": []})")),
                 std::runtime_error);
    EXPECT_THROW(load(R"({"schema": "wwtcmp.campaign/2",
                          "name": "t", "scenarios": []})"),
                 std::runtime_error);
    // A profile nobody mentions is a typo, not an empty selection.
    std::string path =
        writeFile(t.path + "/c.json",
                  campaignDoc(R"({"id": "a", "app": "em3d"})"));
    EXPECT_THROW(exp::loadCampaign(path, "smoek"), std::runtime_error);
}

TEST(CampaignParse, ConfigHashTracksSimulationInputsOnly)
{
    TempDir t;
    std::string path = writeFile(
        t.path + "/c.json",
        campaignDoc(R"({"id": "a", "app": "em3d", "size": 16,
                        "timeout_sec": 60, "retries": 1})"));
    exp::Campaign c1 = exp::loadCampaign(path, "paper");
    std::string h1 = c1.scenarios[0].configHash();
    EXPECT_EQ(h1.size(), 16u);

    // Runner policy does not affect the hash...
    writeFile(t.path + "/c.json",
              campaignDoc(R"({"id": "a", "app": "em3d", "size": 16,
                              "timeout_sec": 5, "retries": 0})"));
    EXPECT_EQ(exp::loadCampaign(path, "paper").scenarios[0].configHash(),
              h1);
    // ...but any simulation input does.
    writeFile(t.path + "/c.json",
              campaignDoc(R"({"id": "a", "app": "em3d", "size": 17})"));
    EXPECT_NE(exp::loadCampaign(path, "paper").scenarios[0].configHash(),
              h1);
}

TEST(CampaignParse, ConfigHashIsPinned)
{
    // Stored records, cache entries and reference files are keyed on
    // this hash; its value for a fixed scenario must never move.
    TempDir t;
    std::string path = writeFile(
        t.path + "/c.json",
        campaignDoc(R"({"id": "pin", "app": "em3d", "machine": "sm",
                        "size": 16, "iters": 2})"));
    exp::Campaign c = exp::loadCampaign(path, "paper");
    ASSERT_EQ(c.scenarios.size(), 1u);
    EXPECT_EQ(c.scenarios[0].configHash(), "099b2c2325d96fbc");
}

TEST(CampaignParse, HostThreadsKeyIsRejected)
{
    TempDir t;
    std::string path = writeFile(
        t.path + "/c.json",
        campaignDoc(R"({"id": "a", "app": "em3d", "host_threads": 1})"));
    try {
        exp::loadCampaign(path, "paper");
        FAIL() << "a campaign setting host_threads must be rejected";
    } catch (const std::runtime_error& e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown key"), std::string::npos) << msg;
        EXPECT_NE(msg.find("\"host_threads\""), std::string::npos) << msg;
    }
}

// ------------------------------------------------------------------
// Shape metrics against a real run.
// ------------------------------------------------------------------

TEST(CampaignShapes, BandsGateSingleRunMetrics)
{
    exp::Scenario s;
    s.id = "shape-test";
    s.app = "em3d";
    s.machine = "mp";
    s.procs = 2;
    s.size = 8;
    s.iters = 2;
    exp::LaunchResult res = exp::launch(s.launchSpec(), nullptr, s.id);

    double total = exp::shapeMetric(res.report, "total_mcycles");
    EXPECT_GT(total, 0.0);
    double comp = exp::shapeMetric(res.report, "computation_share");
    EXPECT_GT(comp, 0.0);
    EXPECT_LE(comp, 1.0);
    EXPECT_THROW(exp::shapeMetric(res.report, "no_such_metric"),
                 std::runtime_error);

    std::string out;
    s.shapes = {{"total_mcycles", total * 0.9, total * 1.1},
                {"computation_share", 0.0, 1.0}};
    EXPECT_EQ(exp::checkShapes(s, res.report, out), 0) << out;
    s.shapes = {{"total_mcycles", total * 2, total * 3}};
    out.clear();
    EXPECT_EQ(exp::checkShapes(s, res.report, out), 1);
    EXPECT_NE(out.find("total_mcycles"), std::string::npos);
}

// ------------------------------------------------------------------
// Result store.
// ------------------------------------------------------------------

TEST(CampaignStore, RecordRoundTripsThroughJson)
{
    exp::RunRecord r;
    r.scenario = "em3d-mp.cache_kb=256";
    r.configHash = "0123456789abcdef";
    r.status = exp::RunStatus::Fail;
    r.attempts = 3;
    r.app = "em3d";
    r.machine = "mp";
    r.config = {{"app", "em3d"}, {"machine", "mp"},
                {"cache_kb", "256"}};
    r.elapsedCycles = 123456;
    r.totalCyclesPerProc = 98765.25;
    r.cycles = {{"computation", 5000.5}, {"barrier", 12.0}};
    r.counts = {{"packets_sent", 42}};
    r.metricsPath = "metrics/em3d-mp.json";
    r.shapeViolations = 2;
    r.error = "2 shape band violation(s)";

    exp::RunRecord b = exp::RunRecord::fromJsonLine(r.toJsonLine());
    EXPECT_EQ(b.scenario, r.scenario);
    EXPECT_EQ(b.configHash, r.configHash);
    EXPECT_EQ(b.status, r.status);
    EXPECT_EQ(b.attempts, r.attempts);
    EXPECT_EQ(b.config, r.config);
    EXPECT_EQ(b.cycles, r.cycles);
    EXPECT_EQ(b.counts, r.counts);
    EXPECT_EQ(b.metricsPath, r.metricsPath);
    EXPECT_EQ(b.shapeViolations, r.shapeViolations);
    EXPECT_EQ(b.error, r.error);
    EXPECT_DOUBLE_EQ(b.totalCyclesPerProc, r.totalCyclesPerProc);

    EXPECT_THROW(exp::RunRecord::fromJsonLine("{\"schema\": \"x\"}"),
                 std::runtime_error);
    EXPECT_THROW(exp::RunRecord::fromJsonLine("not json"),
                 std::runtime_error);
}

TEST(CampaignStore, LoadLatestFoldsLastRecordPerScenario)
{
    TempDir t;
    exp::Store store(t.path + "/camp");
    store.create();
    EXPECT_FALSE(store.exists());

    exp::RunRecord r;
    r.scenario = "a";
    r.configHash = "h1";
    r.status = exp::RunStatus::Fail;
    store.append(r);
    r.status = exp::RunStatus::Pass; // resumed re-run of "a"
    store.append(r);
    r.scenario = "b";
    r.status = exp::RunStatus::Crash;
    store.append(r);
    EXPECT_TRUE(store.exists());

    auto latest = store.loadLatest();
    ASSERT_EQ(latest.size(), 2u);
    EXPECT_EQ(latest.at("a").status, exp::RunStatus::Pass);
    EXPECT_EQ(latest.at("b").status, exp::RunStatus::Crash);

    exp::Scenario sa;
    sa.id = "a";
    // satisfiedBy needs pass + matching hash.
    EXPECT_FALSE(store.satisfiedBy(latest, sa)); // hash differs
    latest.at("a").configHash = sa.configHash();
    EXPECT_TRUE(store.satisfiedBy(latest, sa));
    exp::Scenario sb;
    sb.id = "b";
    latest.at("b").configHash = sb.configHash();
    EXPECT_FALSE(store.satisfiedBy(latest, sb)); // crash, not pass
    exp::Scenario sc;
    sc.id = "c";
    EXPECT_FALSE(store.satisfiedBy(latest, sc)); // no record
}

TEST(CampaignStore, TruncatedTrailingLineToleratedInteriorRejected)
{
    TempDir t;
    exp::Store store(t.path + "/camp");
    store.create();

    exp::RunRecord r;
    r.scenario = "a";
    r.configHash = "h1";
    store.append(r);
    r.scenario = "b";
    store.append(r);

    // Hand-truncate an append: the writer died mid-line. The two
    // intact records must survive with the tail skipped.
    {
        std::ofstream os(store.resultsPath(), std::ios::app);
        os << R"({"schema": "wwtcmp.campaign-record/1", "scen)";
    }
    auto latest = store.loadLatest();
    EXPECT_EQ(latest.size(), 2u);
    EXPECT_TRUE(latest.count("a"));
    EXPECT_TRUE(latest.count("b"));

    // A trailing newline after the garbage changes nothing: the
    // garbled line is still the last record-bearing line.
    {
        std::ofstream os(store.resultsPath(), std::ios::app);
        os << "\n";
    }
    EXPECT_EQ(store.loadLatest().size(), 2u);

    // But once a valid record follows it, the garbage is interior
    // corruption and the store must refuse to load.
    r.scenario = "c";
    store.append(r);
    EXPECT_THROW(store.loadLatest(), std::runtime_error);
}

TEST(Store, AppendToFullDiskThrows)
{
    if (!haveDevFull())
        GTEST_SKIP() << "no /dev/full on this system";
    TempDir t;
    exp::Store store(t.path + "/camp");
    store.create();
    ASSERT_EQ(::symlink("/dev/full", store.resultsPath().c_str()), 0);
    exp::RunRecord r;
    r.scenario = "a";
    r.configHash = "h1";
    try {
        store.append(r);
        FAIL() << "append to a full disk returned normally";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(store.resultsPath()),
                  std::string::npos)
            << e.what();
    }
}

TEST(Store, PublishTakeRoundTrip)
{
    TempDir t;
    exp::Store store(t.path + "/camp");
    store.create();
    EXPECT_FALSE(store.takeRecord("a").has_value());

    store.publishRecord("a", "{\"line\": 1}");
    EXPECT_FALSE(fileExists(store.tmpPartialPath("a")));
    ASSERT_TRUE(fileExists(store.tmpRecordPath("a")));
    std::optional<std::string> line = store.takeRecord("a");
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, "{\"line\": 1}");
    // Taking removes the file: a record is handed back once.
    EXPECT_FALSE(fileExists(store.tmpRecordPath("a")));
    EXPECT_FALSE(store.takeRecord("a").has_value());
}

TEST(Store, PartialRecordIsNeverTaken)
{
    TempDir t;
    exp::Store store(t.path + "/camp");
    store.create();
    exp::RunRecord r;
    r.scenario = "a";
    r.configHash = "h1";
    writeFile(store.tmpPartialPath("a"), r.toJsonLine() + "\n");

    // A complete-looking line in .partial is still not published.
    EXPECT_FALSE(store.takeRecord("a").has_value());
    EXPECT_TRUE(store.discardPartial("a"));
    EXPECT_FALSE(fileExists(store.tmpPartialPath("a")));
    EXPECT_FALSE(store.discardPartial("a"));
}

TEST(Store, PublishToFullDiskThrowsAndLeavesNoRecord)
{
    if (!haveDevFull())
        GTEST_SKIP() << "no /dev/full on this system";
    TempDir t;
    exp::Store store(t.path + "/camp");
    store.create();
    ASSERT_EQ(::symlink("/dev/full", store.tmpPartialPath("a").c_str()),
              0);
    try {
        store.publishRecord("a", "{\"line\": 1}");
        FAIL() << "publish to a full disk returned normally";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(store.tmpPartialPath("a")),
                  std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(fileExists(store.tmpRecordPath("a")));
    EXPECT_FALSE(fileExists(store.tmpPartialPath("a")));
}

// ------------------------------------------------------------------
// Report and diff.
// ------------------------------------------------------------------

TEST(CampaignDiff, DetectsDriftStatusChangesAndMissingScenarios)
{
    TempDir t;
    exp::Store a(t.path + "/a"), b(t.path + "/b");
    a.create();
    b.create();

    exp::RunRecord r;
    r.scenario = "s1";
    r.configHash = "h";
    r.totalCyclesPerProc = 1000;
    r.cycles = {{"computation", 800.0}, {"barrier", 200.0}};
    a.append(r);
    b.append(r);

    std::ostringstream os;
    EXPECT_EQ(exp::diffCampaigns(a.dir(), b.dir(), {}, os), 0);

    // Drift in one category.
    exp::RunRecord r2 = r;
    r2.cycles[1].second = 230.0;
    b.append(r2);
    os.str("");
    EXPECT_EQ(exp::diffCampaigns(a.dir(), b.dir(), {}, os), 1);
    EXPECT_NE(os.str().find("barrier"), std::string::npos);
    // ...absorbed by a generous tolerance.
    os.str("");
    EXPECT_EQ(exp::diffCampaigns(a.dir(), b.dir(), {0.5}, os), 0);

    // Status change trumps value comparison.
    exp::RunRecord r3 = r;
    r3.status = exp::RunStatus::Timeout;
    b.append(r3);
    os.str("");
    EXPECT_EQ(exp::diffCampaigns(a.dir(), b.dir(), {}, os), 1);
    EXPECT_NE(os.str().find("status"), std::string::npos);

    // One-sided scenario.
    exp::RunRecord r4 = r;
    r4.scenario = "s2";
    a.append(r4);
    exp::RunRecord r5 = r;
    b.append(r5); // restore s1 parity
    os.str("");
    EXPECT_EQ(exp::diffCampaigns(a.dir(), b.dir(), {}, os), 1);
    EXPECT_NE(os.str().find("only in"), std::string::npos);
}

TEST(CampaignReport, RendersStatusSummaryAndRows)
{
    TempDir t;
    exp::Store s(t.path + "/c");
    s.create();
    exp::RunRecord r;
    r.scenario = "em3d-mp";
    r.configHash = "h";
    r.totalCyclesPerProc = 2.5e6;
    r.cycles = {{"computation", 2.0e6}};
    s.append(r);
    r.scenario = "em3d-sm";
    r.status = exp::RunStatus::Crash;
    r.error = "child died on signal 11 after 3 attempt(s)";
    s.append(r);

    std::ostringstream os;
    EXPECT_EQ(exp::reportCampaign(s.dir(), os), 0);
    std::string out = os.str();
    EXPECT_NE(out.find("1 pass"), std::string::npos);
    EXPECT_NE(out.find("1 crash"), std::string::npos);
    EXPECT_NE(out.find("em3d-mp"), std::string::npos);
    EXPECT_NE(out.find("signal 11"), std::string::npos);

    std::ostringstream empty;
    EXPECT_EQ(exp::reportCampaign(t.path + "/nothere", empty), 1);
}

TEST(CampaignReport, JsonAndCsvFormatsFoldTheSameRecords)
{
    TempDir t;
    exp::Store s(t.path + "/c");
    s.create();
    exp::RunRecord r;
    r.scenario = "em3d-mp";
    r.configHash = "h";
    r.app = "em3d";
    r.machine = "mp";
    r.config = {{"app", "em3d"}, {"cache_kb", "256"}};
    r.totalCyclesPerProc = 2.5e6;
    r.cycles = {{"computation", 2.0e6}};
    s.append(r);
    r.status = exp::RunStatus::Fail; // superseded by the next append
    s.append(r);
    r.status = exp::RunStatus::Pass;
    s.append(r);

    std::ostringstream js;
    EXPECT_EQ(exp::reportCampaign(s.dir(), js,
                                  exp::ReportFormat::Json),
              0);
    std::string json = js.str();
    EXPECT_NE(json.find("\"schema\": \"wwtcmp.campaign-report/1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"em3d-mp\""), std::string::npos);
    EXPECT_NE(json.find("\"cache_kb\": \"256\""), std::string::npos);
    // Latest-per-id fold: exactly one scenario object, status pass.
    EXPECT_EQ(json.find("\"id\""), json.rfind("\"id\""));
    EXPECT_NE(json.find("\"status\": \"pass\""), std::string::npos);
    EXPECT_EQ(json.find("\"fail\""), std::string::npos);

    std::ostringstream cs;
    EXPECT_EQ(exp::reportCampaign(s.dir(), cs, exp::ReportFormat::Csv),
              0);
    std::string csv = cs.str();
    EXPECT_EQ(csv.rfind("scenario,status,app,machine,attempts,"
                        "total_cycles_per_proc,computation,",
                        0),
              0u)
        << csv;
    EXPECT_NE(csv.find("\nem3d-mp,pass,em3d,mp,1,2500000,2000000,"),
              std::string::npos)
        << csv;

    // Byte-determinism: rendering twice gives identical output.
    std::ostringstream js2, cs2;
    exp::reportCampaign(s.dir(), js2, exp::ReportFormat::Json);
    exp::reportCampaign(s.dir(), cs2, exp::ReportFormat::Csv);
    EXPECT_EQ(js.str(), js2.str());
    EXPECT_EQ(cs.str(), cs2.str());
}

// ------------------------------------------------------------------
// End to end through the real binary: crash isolation, retry, resume.
// ------------------------------------------------------------------

namespace
{

/** Three tiny scenarios; @p middle_extra taints the second one. */
std::string
e2eCampaign(const std::string& middle_extra)
{
    return std::string(R"({"schema": "wwtcmp.campaign/1",)") +
           R"("name": "e2e",
              "defaults": {"procs": 2, "size": 8, "iters": 2,
                           "timeout_sec": 60, "retries": 0},
              "scenarios": [
                {"id": "ok-a", "app": "em3d"},
                {"id": "victim", "app": "em3d", "machine": "sm")" +
           middle_extra + R"(},
                {"id": "ok-b", "app": "gauss", "size": 16,
                 "iters": 0}
              ]})";
}

} // namespace

TEST(CampaignE2E, AuditErrorChildIsRecordedFailedAndResumeRerunsIt)
{
    TempDir t;
    std::string camp = t.path + "/c.json";
    std::string dir = t.path + "/run";
    writeFile(camp, e2eCampaign(R"(, "inject": "audit_error")"));

    // The poisoned child fails; the campaign completes anyway.
    EXPECT_EQ(runBinary("run " + camp + " --dir " + dir + " --jobs 2"),
              1);
    exp::Store store(dir);
    auto latest = store.loadLatest();
    ASSERT_EQ(latest.size(), 3u);
    EXPECT_EQ(latest.at("ok-a").status, exp::RunStatus::Pass);
    EXPECT_EQ(latest.at("ok-b").status, exp::RunStatus::Pass);
    EXPECT_EQ(latest.at("victim").status, exp::RunStatus::Fail);
    EXPECT_NE(latest.at("victim").error.find("audit"),
              std::string::npos)
        << latest.at("victim").error;
    // Deterministic failures are not retried.
    EXPECT_EQ(latest.at("victim").attempts, 1);
    EXPECT_EQ(lineCount(store.resultsPath()), 3u);

    // Fix the campaign file and resume: only the failed scenario
    // re-runs (inject is not part of the config hash, so the passing
    // records still satisfy their scenarios).
    writeFile(camp, e2eCampaign(""));
    EXPECT_EQ(
        runBinary("resume " + camp + " --dir " + dir + " --jobs 2"), 0);
    EXPECT_EQ(lineCount(store.resultsPath()), 4u);
    latest = store.loadLatest();
    EXPECT_EQ(latest.at("victim").status, exp::RunStatus::Pass);

    // A second resume is a no-op.
    EXPECT_EQ(runBinary("resume " + camp + " --dir " + dir), 0);
    EXPECT_EQ(lineCount(store.resultsPath()), 4u);
}

namespace
{

std::string
readAll(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * Run a one-scenario campaign whose @p artifact file ("metrics" or
 * "hostprof") is a symlink to /dev/full, and check that the scenario
 * fails naming the file, without claiming to have written it.
 */
void
expectFullDiskFailsScenario(const std::string& artifact,
                            const std::string& flags)
{
    TempDir t;
    std::string camp = writeFile(
        t.path + "/c.json",
        campaignDoc(R"({"id": "a", "app": "em3d", "size": 8,
                        "iters": 2, "retries": 0})"));
    std::string dir = t.path + "/run";
    exp::Store store(dir);
    store.create();
    std::string target = artifact == "metrics" ? store.metricsPath("a")
                                               : store.hostprofPath("a");
    ASSERT_EQ(::symlink("/dev/full", target.c_str()), 0);

    EXPECT_EQ(runBinary("run " + camp + " --dir " + dir + flags), 1);
    auto latest = store.loadLatest();
    ASSERT_EQ(latest.size(), 1u);
    EXPECT_EQ(latest.at("a").status, exp::RunStatus::Fail);
    EXPECT_NE(latest.at("a").error.find(target), std::string::npos)
        << latest.at("a").error;
    std::string log = readAll(store.logPath("a"));
    EXPECT_NE(log.find("cannot write " + target), std::string::npos)
        << log;
    EXPECT_EQ(log.find("written to " + target), std::string::npos)
        << log;
}

} // namespace

// A full disk shows only when the stream is flushed, so a writer that
// does not check the close prints "written to" and records a pass for
// a manifest that was lost.
TEST(CampaignE2E, MetricsManifestOnFullDiskFailsTheScenario)
{
    if (!haveDevFull())
        GTEST_SKIP() << "no /dev/full on this system";
    expectFullDiskFailsScenario("metrics", "");
}

TEST(CampaignE2E, HostProfileOnFullDiskFailsTheScenario)
{
    if (!haveDevFull())
        GTEST_SKIP() << "no /dev/full on this system";
    expectFullDiskFailsScenario("hostprof", " --host-prof");
}

TEST(CampaignE2E, AbortingChildIsRecordedAsCrash)
{
    TempDir t;
    std::string camp = t.path + "/c.json";
    std::string dir = t.path + "/run";
    writeFile(camp, e2eCampaign(R"(, "inject": "abort")"));

    EXPECT_EQ(runBinary("run " + camp + " --dir " + dir + " --jobs 2"),
              1);
    auto latest = exp::Store(dir).loadLatest();
    ASSERT_EQ(latest.size(), 3u);
    EXPECT_EQ(latest.at("victim").status, exp::RunStatus::Crash);
    EXPECT_NE(latest.at("victim").error.find("signal"),
              std::string::npos)
        << latest.at("victim").error;
    EXPECT_EQ(latest.at("ok-a").status, exp::RunStatus::Pass);
    EXPECT_EQ(latest.at("ok-b").status, exp::RunStatus::Pass);
}

TEST(CampaignE2E, ChaosKilledScenarioPassesOnRetry)
{
    TempDir t;
    std::string camp = t.path + "/c.json";
    std::string dir = t.path + "/run";
    // retries=1 gives the chaos-killed first attempt one more try.
    writeFile(camp, e2eCampaign(R"(, "retries": 1)"));

    EXPECT_EQ(runBinary("run " + camp + " --dir " + dir +
                        " --jobs 2 --chaos-kill victim"),
              0);
    auto latest = exp::Store(dir).loadLatest();
    ASSERT_EQ(latest.size(), 3u);
    EXPECT_EQ(latest.at("victim").status, exp::RunStatus::Pass);
    EXPECT_EQ(latest.at("victim").attempts, 2);
    EXPECT_EQ(latest.at("ok-a").attempts, 1);
}

TEST(CampaignE2E, TwoRunsOfTheSameCampaignShowZeroDrift)
{
    TempDir t;
    std::string camp = t.path + "/c.json";
    writeFile(camp, e2eCampaign(""));
    EXPECT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/r1 --jobs 3"),
              0);
    EXPECT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/r2 --jobs 1"),
              0);
    std::ostringstream os;
    EXPECT_EQ(exp::diffCampaigns(t.path + "/r1", t.path + "/r2", {}, os),
              0)
        << os.str();
    // Running into an occupied directory is refused.
    EXPECT_EQ(runBinary("run " + camp + " --dir " + t.path + "/r1"), 2);
}
