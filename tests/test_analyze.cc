/**
 * @file
 * Tests for the campaign analytics (src/exp/analyze.*): outlier
 * processors on planted and homogeneous fixtures, desynchronization
 * waves localized to the planted windows, byte-determinism of the
 * analysis JSON, and — through the real wwtcmp_campaign binary — an
 * end-to-end cache-ablation baseline diff attributing the delta to
 * the one config key that changed.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "exp/analyze.hh"
#include "exp/store.hh"
#include "stats/category.hh"

using namespace wwt;

namespace
{

/** A unique scratch directory, removed on destruction. */
struct TempDir {
    std::string path;

    TempDir()
    {
        std::string tmpl = ::testing::TempDir() + "wwtanaXXXXXX";
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

int
runBinary(const std::string& args)
{
    std::string cmd = std::string(WWTCMP_CAMPAIGN_BIN) + " " + args +
                      " > /dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * A hand-built wwtcmp.metrics/2 manifest: one run with the given
 * per-processor category cycles and, optionally, one barrier_wait
 * timeline (perProc[p][w] wait cycles at @p window width).
 */
std::string
manifestJson(
    const std::vector<std::vector<double>>& proc_cycles,
    const std::vector<std::vector<double>>& timeline = {},
    double window = 1024)
{
    std::ostringstream os;
    os << R"({"schema": "wwtcmp.metrics/2", "generator": "test",)"
       << R"("runs": [{"name": "run", "nprocs": )"
       << proc_cycles.size() << ", \"per_proc\": [";
    for (std::size_t p = 0; p < proc_cycles.size(); ++p) {
        os << (p ? "," : "") << R"({"proc": )" << p
           << R"(, "cycles": {)";
        for (std::size_t c = 0; c < proc_cycles[p].size(); ++c) {
            os << (c ? "," : "") << "\"c" << c
               << "\": " << proc_cycles[p][c];
        }
        os << "}}";
    }
    os << "], \"timelines\": [";
    if (!timeline.empty()) {
        os << R"({"name": "barrier_wait", "unit": "cycles",)"
           << R"("window_cycles": )" << window << R"(, "per_proc": [)";
        for (std::size_t p = 0; p < timeline.size(); ++p) {
            os << (p ? "," : "") << "[";
            for (std::size_t w = 0; w < timeline[p].size(); ++w)
                os << (w ? "," : "") << timeline[p][w];
            os << "]";
        }
        os << "]}";
    }
    os << "], \"histograms\": []}]}";
    return os.str();
}

/** A campaign dir with one passing record pointing at @p manifest. */
exp::Store
makeCampaign(const std::string& dir, const std::string& manifest)
{
    exp::Store store(dir);
    store.create();
    writeFile(store.metricsPath("s"), manifest);
    exp::RunRecord r;
    r.scenario = "s";
    r.configHash = "h";
    r.status = exp::RunStatus::Pass;
    r.metricsPath = "metrics/s.json";
    store.append(r);
    return store;
}

/** snake_case category name, as the analysis reports use. */
std::string
snake(stats::Category c)
{
    std::string out;
    for (char ch : std::string(stats::categoryName(c))) {
        if (ch == ' ' || ch == '-')
            out += '_';
        else
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(ch)));
    }
    return out;
}

} // namespace

// ------------------------------------------------------------------
// Outlier processors.
// ------------------------------------------------------------------

TEST(AnalyzeOutliers, PlantedOutlierIsFlaggedWithSeparatingCategory)
{
    TempDir t;
    // 8 processors; 7 spend 80/20 computation/barrier, processor 5
    // spends 30/70 — a planted straggler.
    std::vector<std::vector<double>> pc(
        8, std::vector<double>(stats::kNumCategories, 0.0));
    for (std::size_t p = 0; p < 8; ++p) {
        pc[p][0] = p == 5 ? 3000 : 8000; // computation
        pc[p][5] = p == 5 ? 7000 : 2000; // barrier
    }
    makeCampaign(t.path + "/c", manifestJson(pc));

    exp::AnalyzeOptions opts;
    opts.jsonPath = t.path + "/a.json";
    std::ostringstream os;
    EXPECT_EQ(exp::analyzeCampaign(t.path + "/c", opts, os), 0);
    std::string text = os.str();
    std::string json = readFile(opts.jsonPath);

    EXPECT_NE(text.find("proc 5 (cluster of 1)"), std::string::npos)
        << text;
    EXPECT_NE(json.find("\"proc\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"cluster_size\": 1"), std::string::npos);
    // The separating categories are the planted ones.
    EXPECT_NE(json.find("\"category\": \"" +
                        snake(stats::Category::Barrier) + "\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"category\": \"" +
                        snake(stats::Category::Computation) + "\""),
              std::string::npos);
}

TEST(AnalyzeOutliers, HomogeneousMachineFlagsNothing)
{
    TempDir t;
    std::vector<std::vector<double>> pc(
        8, std::vector<double>(stats::kNumCategories, 0.0));
    for (std::size_t p = 0; p < 8; ++p) {
        // Slight per-proc jitter well inside the clustering eps.
        pc[p][0] = 8000 + static_cast<double>(p);
        pc[p][5] = 2000;
    }
    makeCampaign(t.path + "/c", manifestJson(pc));

    exp::AnalyzeOptions opts;
    opts.jsonPath = t.path + "/a.json";
    std::ostringstream os;
    EXPECT_EQ(exp::analyzeCampaign(t.path + "/c", opts, os), 0);
    EXPECT_NE(os.str().find("outliers: none"), std::string::npos)
        << os.str();
    std::string json = readFile(opts.jsonPath);
    EXPECT_NE(json.find("\"flagged\": []"), std::string::npos) << json;
}

// ------------------------------------------------------------------
// Desynchronization waves.
// ------------------------------------------------------------------

TEST(AnalyzeWaves, PlantedSkewIsLocalizedWithLeaderAndDirection)
{
    TempDir t;
    // 4 processors, 10 windows of 1024 cycles. Windows 3..5 carry a
    // planted wave: wait grows with processor id (proc 0 leads).
    std::vector<std::vector<double>> tl(4, std::vector<double>(10, 0));
    for (std::size_t p = 0; p < 4; ++p) {
        for (std::size_t w = 0; w < 10; ++w)
            tl[p][w] = 50; // uniform background, zero skew
        for (std::size_t w = 3; w <= 5; ++w)
            tl[p][w] = static_cast<double>(p) * 300;
    }
    // Per-proc cycles: the skew lands in barrier.
    std::vector<std::vector<double>> pc(
        4, std::vector<double>(stats::kNumCategories, 0.0));
    for (std::size_t p = 0; p < 4; ++p) {
        pc[p][0] = 10000;
        pc[p][5] = static_cast<double>(p) * 900;
    }
    makeCampaign(t.path + "/c", manifestJson(pc, tl));

    exp::AnalyzeOptions opts;
    opts.jsonPath = t.path + "/a.json";
    std::ostringstream os;
    EXPECT_EQ(exp::analyzeCampaign(t.path + "/c", opts, os), 0);
    std::string json = readFile(opts.jsonPath);

    // Exactly one wave, localized to the planted windows.
    EXPECT_NE(json.find("\"timeline\": \"barrier_wait\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"onset_cycle\": 3072"), std::string::npos)
        << json; // 3 * 1024
    EXPECT_NE(json.find("\"end_cycle\": 6144"), std::string::npos)
        << json; // 6 * 1024
    EXPECT_NE(json.find("\"leader_proc\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"direction\": \"ascending\""),
              std::string::npos);
    EXPECT_NE(json.find("\"category\": \"" +
                        snake(stats::Category::Barrier) + "\""),
              std::string::npos);
    // The quiet windows produce no second wave.
    EXPECT_EQ(json.find("\"onset_cycle\": 0,"), std::string::npos);
}

TEST(AnalyzeWaves, UniformWaitsProduceNoWave)
{
    TempDir t;
    std::vector<std::vector<double>> tl(4,
                                        std::vector<double>(10, 700));
    std::vector<std::vector<double>> pc(
        4, std::vector<double>(stats::kNumCategories, 1000.0));
    makeCampaign(t.path + "/c", manifestJson(pc, tl));

    exp::AnalyzeOptions opts;
    std::ostringstream os;
    EXPECT_EQ(exp::analyzeCampaign(t.path + "/c", opts, os), 0);
    EXPECT_NE(os.str().find("waves: none"), std::string::npos)
        << os.str();
}

// ------------------------------------------------------------------
// Determinism and the missing-store exit code.
// ------------------------------------------------------------------

TEST(Analyze, JsonIsByteIdenticalAcrossInvocations)
{
    TempDir t;
    std::vector<std::vector<double>> pc(
        4, std::vector<double>(stats::kNumCategories, 0.0));
    for (std::size_t p = 0; p < 4; ++p) {
        pc[p][0] = 5000 + static_cast<double>(p) * 10;
        pc[p][5] = p == 3 ? 9000 : 100;
    }
    makeCampaign(t.path + "/c", manifestJson(pc));

    exp::AnalyzeOptions a;
    a.jsonPath = t.path + "/1.json";
    exp::AnalyzeOptions b;
    b.jsonPath = t.path + "/2.json";
    std::ostringstream os1, os2;
    EXPECT_EQ(exp::analyzeCampaign(t.path + "/c", a, os1), 0);
    EXPECT_EQ(exp::analyzeCampaign(t.path + "/c", b, os2), 0);
    EXPECT_EQ(readFile(a.jsonPath), readFile(b.jsonPath));
    EXPECT_EQ(os1.str(), os2.str());
}

TEST(Analyze, MissingStoreReturnsOne)
{
    TempDir t;
    exp::AnalyzeOptions opts;
    std::ostringstream os;
    EXPECT_EQ(exp::analyzeCampaign(t.path + "/nothere", opts, os), 1);
}

// Records written before the parallel host was removed list a
// `rendezvous` host phase; a baseline made of them must diff like any
// other, with `rendezvous` attributed as an ordinary named phase.
TEST(Analyze, BaselineWithRendezvousPhaseIsAccepted)
{
    TempDir t;
    std::vector<std::vector<double>> pc(
        2, std::vector<double>(stats::kNumCategories, 1000.0));
    std::string manifest = manifestJson(pc);

    exp::Store base(t.path + "/base");
    base.create();
    writeFile(base.metricsPath("s"), manifest);
    // One line in the older record layout, host phases included.
    const std::string old_line =
        R"({"schema":"wwtcmp.campaign-record/1","scenario":"s",)"
        R"("config_hash":"099b2c2325d96fbc","status":"pass",)"
        R"("attempts":1,"app":"em3d","machine":"sm","config":)"
        R"({"app":"em3d","machine":"sm","procs":"2",)"
        R"("cache_kb":"256","net_gap":"0","local_alloc":"0",)"
        R"("tree":"lop","host_threads":"1","fast_hit":"1",)"
        R"("size":"16","iters":"2"},"elapsed_cycles":451153,)"
        R"("total_cycles_per_proc":451153,"cycles_per_proc":)"
        R"({"computation":102636},"counts":{"barriers":18},)"
        R"("wall_sec":2,"user_sec":1.5,"sys_sec":0.25,)"
        R"("max_rss_kb":6292,"host_phases":{"untracked":0.25,)"
        R"("event_drain":0.25,"fiber":0.25,"mem":0.25,)"
        R"("protocol":0.25,"net":0.25,"trace":0.25,"audit":0.25,)"
        R"("rendezvous":0.5},"metrics":"metrics/s.json",)"
        R"("shape_violations":0,"error":""})";
    writeFile(base.resultsPath(), old_line + "\n");

    exp::Store cand(t.path + "/cand");
    cand.create();
    writeFile(cand.metricsPath("s"), manifest);
    exp::RunRecord r = exp::RunRecord::fromJsonLine(old_line);
    r.wallSec = 1.5;
    r.hostPhases.pop_back(); // the current layout has no rendezvous
    cand.append(r);

    exp::AnalyzeOptions opts;
    opts.baselineDir = t.path + "/base";
    opts.jsonPath = t.path + "/a.json";
    std::ostringstream os;
    ASSERT_EQ(exp::analyzeCampaign(t.path + "/cand", opts, os), 0)
        << os.str();
    EXPECT_NE(os.str().find("host phase rendezvous   -0.500 s"),
              std::string::npos)
        << os.str();
    std::string json = readFile(opts.jsonPath);
    EXPECT_NE(json.find("\"phase\": \"rendezvous\""), std::string::npos)
        << json;
}

// ------------------------------------------------------------------
// End to end: the EM3D cache ablation, attributed to cache_kb.
// ------------------------------------------------------------------

namespace
{

std::string
em3dCampaign(int cache_kb)
{
    std::ostringstream os;
    os << R"({"schema": "wwtcmp.campaign/1", "name": "abl",
              "defaults": {"procs": 2, "size": 32, "iters": 2,
                           "timeout_sec": 120, "retries": 0},
              "scenarios": [
                {"id": "em3d-sm", "app": "em3d", "machine": "sm",
                 "cache_kb": )"
       << cache_kb << "}]}";
    return os.str();
}

} // namespace

TEST(AnalyzeE2E, CacheAblationAttributesDeltaToCacheKb)
{
    TempDir t;
    std::string big = writeFile(t.path + "/big.json",
                                em3dCampaign(256));
    std::string tiny = writeFile(t.path + "/tiny.json",
                                 em3dCampaign(1));
    ASSERT_EQ(runBinary("run " + big + " --dir " + t.path + "/big"), 0);
    ASSERT_EQ(runBinary("run " + tiny + " --dir " + t.path + "/tiny"),
              0);

    // The narrative diff must attribute the drift to cache_kb alone.
    std::string out = t.path + "/analysis.json";
    ASSERT_EQ(runBinary("analyze " + t.path + "/tiny --baseline " +
                        t.path + "/big --json " + out),
              0);
    std::string json = readFile(out);
    EXPECT_NE(json.find("\"keys\": [\n          \"cache_kb\"\n"),
              std::string::npos)
        << json;
    // Shrinking the cache 256x must cost cycles somewhere.
    EXPECT_EQ(json.find("\"attributed_total_mcycles\": 0\n"),
              std::string::npos)
        << json;

    // Diffing a campaign against itself attributes nothing.
    std::string self = t.path + "/self.json";
    ASSERT_EQ(runBinary("analyze " + t.path + "/big --baseline " +
                        t.path + "/big --json " + self),
              0);
    std::string selfJson = readFile(self);
    EXPECT_NE(selfJson.find("\"keys\": []"), std::string::npos)
        << selfJson;
    EXPECT_NE(selfJson.find("\"attributed_total_mcycles\": 0\n"),
              std::string::npos)
        << selfJson;
}
