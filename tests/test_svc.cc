/**
 * @file
 * Tests for the campaign service (src/svc/): the content-addressed
 * cache index, the refusal of stores left by the removed sharded
 * workers, and — through the real wwtcmp_campaign binary — warm-cache
 * runs, the resume-prefers-pass regression, children killed
 * mid-publish, stale partial records, the rendered dashboard and its
 * checked writes.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "exp/store.hh"
#include "svc/cache_index.hh"

using namespace wwt;

namespace
{

/** A unique scratch directory, removed on destruction. */
struct TempDir {
    std::string path;

    TempDir()
    {
        std::string tmpl = ::testing::TempDir() + "wwtsvcXXXXXX";
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

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

int
runBinary(const std::string& args)
{
    std::string cmd = std::string(WWTCMP_CAMPAIGN_BIN) + " " + args +
                      " > /dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/** Run the binary capturing combined stdout+stderr into @p out;
 *  @p redirect " 2>&1 >/dev/null" captures stderr alone. */
int
runBinaryCapture(const std::string& args, std::string& out,
                 const char* redirect = " 2>&1")
{
    std::string cmd =
        std::string(WWTCMP_CAMPAIGN_BIN) + " " + args + redirect;
    FILE* p = ::popen(cmd.c_str(), "r");
    if (!p)
        return -1;
    char buf[4096];
    out.clear();
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        out.append(buf, n);
    int rc = ::pclose(p);
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/** True when @p dir holds no entries besides "." and "..". */
bool
dirIsEmpty(const std::string& dir)
{
    return std::system(("test -z \"$(ls -A '" + dir + "')\"").c_str()) ==
           0;
}

/** True when /dev/full exists, so a write to it fails with ENOSPC. */
bool
haveDevFull()
{
    return ::access("/dev/full", W_OK) == 0;
}

/** A pass record with enough fields for cache adoption to matter. */
exp::RunRecord
passRecord(const std::string& id, const std::string& hash)
{
    exp::RunRecord r;
    r.scenario = id;
    r.configHash = hash;
    r.status = exp::RunStatus::Pass;
    r.totalCyclesPerProc = 1000;
    r.cycles = {{"computation", 800.0}, {"barrier", 200.0}};
    r.wallSec = 1.5;
    r.userSec = 1.2;
    r.maxRssKb = 4096;
    return r;
}

} // namespace

// ------------------------------------------------------------------
// The store fold: one results file, last record per id wins.
// ------------------------------------------------------------------

TEST(StoreFold, CachedProvenanceRoundTripsThroughJson)
{
    exp::RunRecord r = passRecord("a", "h1");
    // Executed records carry no cache keys at all.
    EXPECT_EQ(r.toJsonLine().find("\"cached\""), std::string::npos);

    r.cached = true;
    r.cacheSource = "other/results.jsonl";
    r.cacheLine = 7;
    r.cacheWallSec = 1.5;
    exp::RunRecord back = exp::RunRecord::fromJsonLine(r.toJsonLine());
    EXPECT_TRUE(back.cached);
    EXPECT_EQ(back.cacheSource, "other/results.jsonl");
    EXPECT_EQ(back.cacheLine, 7u);
    EXPECT_DOUBLE_EQ(back.cacheWallSec, 1.5);
}

// A store written by the removed sharded workers: results.jsonl plus a
// worker's results.<w>.jsonl shard. Reading results.jsonl alone could
// report an outcome the shard superseded, so every reader refuses it
// and names the shard.
TEST(StoreFold, WorkerShardIsRefusedByName)
{
    TempDir t;
    exp::Store store(t.path);
    store.create();
    store.append(passRecord("a", "h1"));
    const std::string shard =
        writeFile(t.path + "/results.alpha.jsonl",
                  passRecord("b", "h2").toJsonLine() + "\n");

    auto expectRefused = [&](const char* reader, auto&& read) {
        try {
            read();
            ADD_FAILURE() << reader << " read a store with a shard";
        } catch (const std::runtime_error& e) {
            std::string what = e.what();
            EXPECT_NE(what.find(shard), std::string::npos)
                << reader << ": " << what;
            EXPECT_NE(what.find("sharded workers"), std::string::npos)
                << reader << ": " << what;
        }
    };
    expectRefused("loadLatest", [&] { store.loadLatest(); });
    expectRefused("CacheIndex::addStore", [&] {
        svc::CacheIndex idx;
        idx.addStore(t.path);
    });
}

// Every store written before the workers were removed has an empty
// leases/ directory; it means nothing and must not stop a read.
TEST(StoreFold, LeftoverLeasesDirectoryIsIgnored)
{
    TempDir t;
    exp::Store store(t.path);
    store.create();
    store.append(passRecord("a", "h1"));
    ASSERT_EQ(::mkdir((t.path + "/leases").c_str(), 0777), 0);

    auto latest = store.loadLatest();
    ASSERT_EQ(latest.size(), 1u);
    EXPECT_EQ(latest.at("a").status, exp::RunStatus::Pass);
    svc::CacheIndex idx;
    idx.addStore(t.path);
    EXPECT_EQ(idx.size(), 1u);
}

// ------------------------------------------------------------------
// Cache index.
// ------------------------------------------------------------------

TEST(CacheIndex, IndexesOnlyPassingRecords)
{
    TempDir t;
    exp::Store s(t.path);
    s.create();
    s.append(passRecord("a", "h1"));
    exp::RunRecord bad = passRecord("b", "h2");
    bad.status = exp::RunStatus::Timeout;
    s.append(bad);

    svc::CacheIndex idx;
    idx.addStore(t.path);
    EXPECT_EQ(idx.size(), 1u);
    ASSERT_NE(idx.find("h1"), nullptr);
    EXPECT_EQ(idx.find("h2"), nullptr);
    EXPECT_EQ(idx.find("h1")->line, 1u);
}

TEST(CacheIndex, OriginalExecutionBeatsCacheHitCopy)
{
    TempDir t;
    exp::Store s(t.path);
    s.create();
    // A cache-hit copy lands first in fold order...
    exp::RunRecord copy = passRecord("a", "h1");
    copy.cached = true;
    copy.cacheSource = "elsewhere/results.jsonl";
    copy.cacheLine = 3;
    copy.cacheWallSec = 9.0;
    s.append(copy);
    // ...but the executed original supersedes it in the index.
    s.append(passRecord("b", "h1"));

    svc::CacheIndex idx;
    idx.addStore(t.path);
    ASSERT_NE(idx.find("h1"), nullptr);
    EXPECT_FALSE(idx.find("h1")->record.cached);
    EXPECT_EQ(idx.find("h1")->line, 2u);
}

TEST(CacheIndex, CacheRecordZerosHostTimingsAndChainsWallTime)
{
    TempDir t;
    exp::Store s(t.path);
    s.create();
    s.append(passRecord("orig", "h1"));
    svc::CacheIndex idx;
    idx.addStore(t.path);
    const svc::CacheHit* hit = idx.find("h1");
    ASSERT_NE(hit, nullptr);

    exp::RunRecord adopted = svc::CacheIndex::cacheRecord(*hit, "mine");
    EXPECT_EQ(adopted.scenario, "mine");
    EXPECT_EQ(adopted.status, exp::RunStatus::Pass);
    EXPECT_EQ(adopted.attempts, 0);
    EXPECT_TRUE(adopted.cached);
    EXPECT_EQ(adopted.cacheSource, hit->sourceFile);
    EXPECT_EQ(adopted.cacheLine, 1u);
    // Simulated numbers are verbatim; host timings are zeroed with
    // the original wall time preserved in the provenance.
    EXPECT_EQ(adopted.totalCyclesPerProc, 1000);
    EXPECT_EQ(adopted.wallSec, 0);
    EXPECT_EQ(adopted.userSec, 0);
    EXPECT_EQ(adopted.maxRssKb, 0);
    EXPECT_DOUBLE_EQ(adopted.cacheWallSec, 1.5);

    // Adopting a cache hit *of a cache hit* keeps the measured wall
    // time of the real run, not the copy's zero.
    svc::CacheHit secondHop{adopted, "b/results.jsonl", 1};
    exp::RunRecord again =
        svc::CacheIndex::cacheRecord(secondHop, "third");
    EXPECT_DOUBLE_EQ(again.cacheWallSec, 1.5);
}

TEST(CacheIndex, MissingStoreIsEmptyNotAnError)
{
    svc::CacheIndex idx;
    idx.addStore("/nonexistent/store/dir");
    EXPECT_EQ(idx.size(), 0u);
}

// ------------------------------------------------------------------
// End-to-end through the real binary.
// ------------------------------------------------------------------

namespace
{

std::string
e2eCampaign()
{
    return R"({"schema": "wwtcmp.campaign/1",
               "name": "svc-e2e",
               "defaults": {"procs": 2, "size": 8, "iters": 2,
                            "timeout_sec": 60, "retries": 1},
               "scenarios": [
                 {"id": "ok-a", "app": "em3d"},
                 {"id": "ok-b", "app": "em3d", "machine": "sm"},
                 {"id": "ok-c", "app": "gauss", "size": 16,
                  "iters": 0}
               ]})";
}

} // namespace

TEST(SvcE2E, WarmCacheRunExecutesNothing)
{
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    ASSERT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/cold --jobs 3"),
              0);

    std::string out;
    EXPECT_EQ(runBinaryCapture("run " + camp + " --dir " + t.path +
                                   "/warm --cache " + t.path +
                                   "/cold --jobs 3",
                               out),
              0);
    EXPECT_NE(out.find("0 executed, 3 cached"), std::string::npos)
        << out;
    EXPECT_NE(out.find("0 child exec(s)"), std::string::npos) << out;

    auto latest = exp::Store(t.path + "/warm").loadLatest();
    ASSERT_EQ(latest.size(), 3u);
    for (const auto& [id, rec] : latest) {
        EXPECT_TRUE(rec.cached) << id;
        EXPECT_EQ(rec.attempts, 0) << id;
        EXPECT_EQ(rec.wallSec, 0) << id;
        EXPECT_NE(rec.cacheSource.find("cold/results.jsonl"),
                  std::string::npos)
            << id;
        EXPECT_GT(rec.cacheWallSec, 0) << id;
    }
    // Identical simulated numbers: the adopted store diffs clean.
    EXPECT_EQ(runBinary("diff " + t.path + "/cold " + t.path + "/warm"),
              0);
}

TEST(SvcE2E, ResumePrefersSameHashPassOverTimeoutRecord)
{
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    ASSERT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/cold --jobs 3"),
              0);

    // Rewrite one record as a timeout — the shape of the store after
    // a child was killed by the wall-clock budget. The cold store
    // still holds passes for the other hashes; the *cache* store
    // holds a pass for this very hash.
    exp::Store store(t.path + "/cold");
    auto latest = store.loadLatest();
    exp::RunRecord timeoutRec = latest.at("ok-a");
    timeoutRec.status = exp::RunStatus::Timeout;
    timeoutRec.error = "timeout after 60s";
    store.append(timeoutRec);
    latest = store.loadLatest();
    ASSERT_EQ(latest.at("ok-a").status, exp::RunStatus::Timeout);

    // The regression this guards: resume used to re-execute ok-a even
    // though a passing record for the same config hash existed. With
    // the cache index folded over an auxiliary store, the pass is
    // adopted instead of re-run.
    ASSERT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/aux --jobs 3"),
              0);
    std::string out;
    EXPECT_EQ(runBinaryCapture("resume " + camp + " --dir " + t.path +
                                   "/cold --cache " + t.path +
                                   "/aux --jobs 3",
                               out),
              0);
    EXPECT_NE(out.find("0 executed, 1 cached, 2 skipped"),
              std::string::npos)
        << out;
    latest = store.loadLatest();
    EXPECT_EQ(latest.at("ok-a").status, exp::RunStatus::Pass);
    EXPECT_TRUE(latest.at("ok-a").cached);
}

TEST(SvcE2E, SelfStoreCacheSatisfiesRepeatHashOnResume)
{
    // Repeat instances share one config hash; a timeout for one must
    // not force a re-run when a sibling already proved the hash.
    TempDir t;
    std::string camp = writeFile(
        t.path + "/c.json",
        R"({"schema": "wwtcmp.campaign/1", "name": "rep",
            "defaults": {"procs": 2, "size": 8, "iters": 2,
                         "timeout_sec": 60, "retries": 0},
            "scenarios": [
              {"id": "twin", "app": "em3d", "repeat": 2}
            ]})");
    ASSERT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/run --jobs 2"),
              0);
    exp::Store store(t.path + "/run");
    auto latest = store.loadLatest();
    ASSERT_EQ(latest.size(), 2u);

    // One twin timed out; its sibling's pass carries the same hash.
    auto it = latest.begin();
    exp::RunRecord timeoutRec = it->second;
    timeoutRec.status = exp::RunStatus::Timeout;
    timeoutRec.error = "timeout after 60s";
    store.append(timeoutRec);

    std::string out;
    EXPECT_EQ(runBinaryCapture("resume " + camp + " --dir " + t.path +
                                   "/run --jobs 2",
                               out),
              0);
    EXPECT_NE(out.find("0 executed, 1 cached"), std::string::npos)
        << out;
    latest = store.loadLatest();
    for (const auto& [id, rec] : latest)
        EXPECT_EQ(rec.status, exp::RunStatus::Pass) << id;
}

TEST(SvcE2E, JobsClampAndStrictZeroDiagnostic)
{
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    EXPECT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/z --jobs 0"),
              2);

    std::string out;
    EXPECT_EQ(runBinaryCapture("run " + camp + " --dir " + t.path +
                                   "/r --jobs 64",
                               out),
              0);
    EXPECT_NE(out.find("clamping to 3"), std::string::npos) << out;
}

TEST(SvcE2E, ChaosWriteKillAbandonsPartialAndRetries)
{
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    std::string out;
    EXPECT_EQ(runBinaryCapture("run " + camp + " --dir " + t.path +
                                   "/r --jobs 2 --chaos-write-kill "
                                   "ok-a",
                               out),
              0);
    // The summary label predates the file handoff; it now counts
    // abandoned .partial records.
    EXPECT_NE(out.find("1 ring reclaim(s)"), std::string::npos) << out;
    EXPECT_NE(out.find("warning: ok-a attempt 1 died mid-publish"),
              std::string::npos)
        << out;
    auto latest = exp::Store(t.path + "/r").loadLatest();
    ASSERT_EQ(latest.size(), 3u);
    EXPECT_EQ(latest.at("ok-a").status, exp::RunStatus::Pass);
    EXPECT_EQ(latest.at("ok-a").attempts, 2);
    EXPECT_TRUE(dirIsEmpty(t.path + "/r/tmp"));
}

TEST(SvcE2E, StalePartialIsDiscardedNeverAdopted)
{
    // A forged pass record in ok-a's .partial file, as a child killed
    // mid-publish would leave it. The first attempt is SIGKILLed at
    // spawn, so after that reap the planted file is still there: the
    // parent must discard it, not adopt it, and the retry must
    // produce the real record.
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    exp::Store store(t.path + "/r");
    store.create();
    exp::RunRecord forged = passRecord("ok-a", "0000000000000000");
    forged.totalCyclesPerProc = 12345;
    writeFile(store.tmpPartialPath("ok-a"), forged.toJsonLine() + "\n");

    std::string out;
    EXPECT_EQ(runBinaryCapture("run " + camp + " --dir " + store.dir() +
                                   " --jobs 2 --chaos-kill ok-a",
                               out),
              0);
    EXPECT_NE(out.find("1 ring reclaim(s)"), std::string::npos) << out;
    EXPECT_NE(out.find("warning: ok-a attempt 1 died mid-publish"),
              std::string::npos)
        << out;
    auto latest = store.loadLatest();
    ASSERT_EQ(latest.size(), 3u);
    EXPECT_EQ(latest.at("ok-a").status, exp::RunStatus::Pass);
    EXPECT_EQ(latest.at("ok-a").attempts, 2);
    EXPECT_NE(latest.at("ok-a").totalCyclesPerProc, 12345);
    EXPECT_NE(latest.at("ok-a").configHash, forged.configHash);
    EXPECT_TRUE(dirIsEmpty(store.dir() + "/tmp"));
}

TEST(SvcE2E, ServeRendersDashboardTree)
{
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    ASSERT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/r --jobs 3"),
              0);
    EXPECT_EQ(runBinary("serve " + t.path + "/r --out " + t.path +
                        "/dash"),
              0);
    std::string root = readFile(t.path + "/dash/index.html");
    EXPECT_NE(root.find("campaigns"), std::string::npos);
    std::string page = readFile(t.path + "/dash/r/index.html");
    EXPECT_NE(page.find("ok-a"), std::string::npos);
    EXPECT_NE(page.find("ok-b"), std::string::npos);
    EXPECT_NE(page.find("ok-c"), std::string::npos);
    std::string rep = readFile(t.path + "/dash/r/report.json");
    EXPECT_NE(rep.find("\"wwtcmp.campaign-report/1\""),
              std::string::npos);
    EXPECT_NE(rep.find("\"executed\": 3"), std::string::npos);
    std::string ana = readFile(t.path + "/dash/r/analysis.json");
    EXPECT_NE(ana.find("\"wwtcmp.analysis/1\""), std::string::npos);
    // serve only renders; the old HTTP flags are unknown flags now.
    for (const char* flag : {"--port 8080", "--host 127.0.0.1", "--once"})
        EXPECT_EQ(runBinary("serve " + t.path + "/r --out " + t.path +
                            "/dash " + flag),
                  2)
            << flag;
}

TEST(SvcE2E, EveryReaderRefusesAStoreWithAWorkerShard)
{
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    std::string cold = t.path + "/cold";
    ASSERT_EQ(runBinary("run " + camp + " --dir " + cold + " --jobs 3"),
              0);
    // The shard a second worker would have written: valid records.
    std::string shard = writeFile(cold + "/results.alpha.jsonl",
                                  readFile(cold + "/results.jsonl"));

    const std::pair<const char*, std::string> readers[] = {
        {"report", "report " + cold},
        {"diff", "diff " + cold + " " + cold},
        {"analyze", "analyze " + cold},
        {"serve", "serve " + cold + " --out " + t.path + "/dash"},
        {"resume", "resume " + camp + " --dir " + cold + " --jobs 3"},
        {"--cache", "run " + camp + " --dir " + t.path +
                        "/fresh --cache " + cold + " --jobs 3"},
    };
    for (const auto& [verb, args] : readers) {
        std::string err;
        EXPECT_NE(runBinaryCapture(args, err, " 2>&1 >/dev/null"), 0)
            << verb;
        EXPECT_NE(err.find(shard), std::string::npos) << verb << ": "
                                                      << err;
        EXPECT_NE(err.find("sharded workers"), std::string::npos)
            << verb << ": " << err;
    }
}

TEST(SvcE2E, WorkerFlagsAreUnknownFlags)
{
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    for (const char* flag :
         {"--workers a,b", "--worker a", "--lease-timeout 5"}) {
        std::string err;
        EXPECT_EQ(runBinaryCapture("run " + camp + " --dir " + t.path +
                                       "/r " + flag,
                                   err),
                  2)
            << flag;
        EXPECT_NE(err.find("unknown flag"), std::string::npos)
            << flag << ": " << err;
    }
}

// A full disk shows only at the close; an unchecked writer reports
// success for a file that was never written.
TEST(SvcE2E, AnalyzeJsonOnFullDiskFails)
{
    if (!haveDevFull())
        GTEST_SKIP() << "no /dev/full on this system";
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    ASSERT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/r --jobs 3"),
              0);
    std::string err;
    EXPECT_NE(runBinaryCapture("analyze " + t.path +
                                   "/r --json /dev/full",
                               err, " 2>&1 >/dev/null"),
              0);
    EXPECT_NE(err.find("cannot write /dev/full"), std::string::npos)
        << err;
    EXPECT_EQ(err.find("written to"), std::string::npos) << err;
}

TEST(SvcE2E, ServeOnFullDiskFails)
{
    if (!haveDevFull())
        GTEST_SKIP() << "no /dev/full on this system";
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    ASSERT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/r --jobs 3"),
              0);
    std::string dash = t.path + "/dash";
    ASSERT_EQ(::mkdir(dash.c_str(), 0777), 0);
    ASSERT_EQ(::symlink("/dev/full", (dash + "/index.html").c_str()), 0);
    std::string out;
    EXPECT_NE(runBinaryCapture("serve " + t.path + "/r --out " + dash,
                               out),
              0);
    EXPECT_NE(out.find("cannot write " + dash + "/index.html"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("serve: wrote " + dash + "/index.html"),
              std::string::npos)
        << out;
}
