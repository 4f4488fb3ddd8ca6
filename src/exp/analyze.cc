#include "exp/analyze.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "audit/shapes.hh"
#include "core/metrics.hh"
#include "exp/store.hh"
#include "stats/category.hh"
#include "trace/histogram.hh"
#include "trace/json.hh"

namespace wwt::exp
{

namespace
{

using audit::JsonValue;

/** snake_case category key (mirrors store.cc / scenario.cc). */
std::string
snakeCategory(stats::Category c)
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

// ----------------------------------------------------------------
// Metrics-manifest reader (accepts wwtcmp.metrics/1 and /2).
// ----------------------------------------------------------------

struct ManifestHist {
    std::string name;
    trace::LogHistogram hist;
};

struct ManifestTimeline {
    std::string name;
    std::uint64_t window = 0;
    /** perProc[p][w] = wait cycles of proc p in window w. */
    std::vector<std::vector<double>> perProc;
};

struct ManifestRun {
    std::string name;
    std::size_t nprocs = 0;
    /** procCycles[p][c], category order; empty for /1 manifests. */
    std::vector<std::vector<double>> procCycles;
    std::vector<ManifestTimeline> timelines;
    std::vector<ManifestHist> hists;
};

struct Manifest {
    int version = 0; ///< 1 or 2
    std::vector<ManifestRun> runs;
};

double
numberOr(const JsonValue& obj, const std::string& key, double fallback)
{
    const JsonValue* v = obj.find(key);
    return v && v->kind == JsonValue::Kind::Number ? v->number
                                                   : fallback;
}

std::string
stringOr(const JsonValue& obj, const std::string& key,
         const std::string& fallback)
{
    const JsonValue* v = obj.find(key);
    return v && v->kind == JsonValue::Kind::String ? v->string
                                                   : fallback;
}

bool
loadManifest(const std::string& path, Manifest& m, std::string& err)
{
    std::ifstream in(path);
    if (!in) {
        err = "no metrics manifest at " + path;
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    JsonValue doc;
    try {
        doc = audit::parseJson(buf.str());
    } catch (const std::exception& e) {
        err = path + ": " + e.what();
        return false;
    }
    std::string schema = stringOr(doc, "schema", "");
    if (schema == "wwtcmp.metrics/1")
        m.version = 1;
    else if (schema == "wwtcmp.metrics/2")
        m.version = 2;
    else {
        err = path + ": unsupported schema \"" + schema + "\"";
        return false;
    }

    const JsonValue* runs = doc.find("runs");
    if (!runs || runs->kind != JsonValue::Kind::Array) {
        err = path + ": missing \"runs\"";
        return false;
    }
    for (const JsonValue& rj : runs->array) {
        ManifestRun run;
        run.name = stringOr(rj, "name", "");
        run.nprocs = static_cast<std::size_t>(numberOr(rj, "nprocs", 0));
        if (const JsonValue* pp = rj.find("per_proc")) {
            for (const JsonValue& pj : pp->array) {
                std::vector<double> cyc(stats::kNumCategories, 0.0);
                if (const JsonValue* cj = pj.find("cycles")) {
                    std::size_t i = 0;
                    for (const auto& [k, v] : cj->object) {
                        if (i < cyc.size())
                            cyc[i] = v.number;
                        ++i;
                    }
                }
                run.procCycles.push_back(std::move(cyc));
            }
        }
        if (const JsonValue* tls = rj.find("timelines")) {
            for (const JsonValue& tj : tls->array) {
                ManifestTimeline tl;
                tl.name = stringOr(tj, "name", "");
                tl.window = static_cast<std::uint64_t>(
                    numberOr(tj, "window_cycles", 0));
                if (const JsonValue* pp = tj.find("per_proc")) {
                    for (const JsonValue& row : pp->array) {
                        std::vector<double> windows;
                        for (const JsonValue& v : row.array)
                            windows.push_back(v.number);
                        tl.perProc.push_back(std::move(windows));
                    }
                }
                run.timelines.push_back(std::move(tl));
            }
        }
        if (const JsonValue* hs = rj.find("histograms")) {
            for (const JsonValue& hj : hs->array) {
                ManifestHist h;
                h.name = stringOr(hj, "name", "");
                std::vector<std::pair<std::size_t, std::uint64_t>>
                    buckets;
                if (const JsonValue* bs = hj.find("buckets")) {
                    for (const JsonValue& bj : bs->array) {
                        auto lo = static_cast<std::uint64_t>(
                            numberOr(bj, "lo", 0));
                        auto n = static_cast<std::uint64_t>(
                            numberOr(bj, "count", 0));
                        buckets.emplace_back(
                            trace::LogHistogram::bucketOf(lo), n);
                    }
                }
                h.hist = trace::LogHistogram::fromBuckets(
                    buckets,
                    static_cast<std::uint64_t>(numberOr(hj, "sum", 0)),
                    static_cast<std::uint64_t>(numberOr(hj, "min", 0)),
                    static_cast<std::uint64_t>(numberOr(hj, "max", 0)));
                run.hists.push_back(std::move(h));
            }
        }
        m.runs.push_back(std::move(run));
    }
    return true;
}

// ----------------------------------------------------------------
// Outlier processors: single-linkage clustering on share vectors.
// ----------------------------------------------------------------

struct SeparatingCat {
    std::size_t cat = 0;
    double share = 0;         ///< the flagged proc's share
    double majorityShare = 0; ///< the majority cluster's mean share
};

struct FlaggedProc {
    std::size_t proc = 0;
    std::size_t clusterSize = 0;
    std::vector<SeparatingCat> separating;
};

struct OutlierAnalysis {
    bool available = false;
    std::string note;
    std::size_t nprocs = 0;
    std::vector<std::vector<std::size_t>> clusters;
    std::vector<FlaggedProc> flagged;
};

OutlierAnalysis
findOutliers(const std::vector<std::vector<double>>& proc_cycles,
             double eps)
{
    OutlierAnalysis out;
    const std::size_t n = proc_cycles.size();
    out.nprocs = n;
    if (n == 0) {
        out.note = "no per-processor vectors (metrics/1 manifest)";
        return out;
    }
    if (n > 512) {
        out.note = "skipped: more than 512 processors";
        return out;
    }
    out.available = true;

    // Normalize to shares so "spends its time differently" is about
    // the breakdown, not the absolute cycle count.
    constexpr std::size_t ncat = stats::kNumCategories;
    std::vector<std::vector<double>> share(
        n, std::vector<double>(ncat, 0.0));
    for (std::size_t p = 0; p < n; ++p) {
        double total = 0;
        for (std::size_t c = 0; c < ncat; ++c)
            total += c < proc_cycles[p].size() ? proc_cycles[p][c] : 0;
        if (total > 0) {
            for (std::size_t c = 0;
                 c < ncat && c < proc_cycles[p].size(); ++c)
                share[p][c] = proc_cycles[p][c] / total;
        }
    }

    // Single-linkage agglomeration. Clusters stay ordered by their
    // smallest member id (merging j into i with i < j preserves
    // this), and ties break toward the lowest-id pair, so the
    // clustering is a pure function of the share vectors.
    std::vector<std::vector<std::size_t>> cl(n);
    for (std::size_t p = 0; p < n; ++p)
        cl[p] = {p};
    std::vector<std::vector<double>> dist(n,
                                          std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            double d = 0;
            for (std::size_t c = 0; c < ncat; ++c)
                d += std::fabs(share[i][c] - share[j][c]);
            dist[i][j] = dist[j][i] = d;
        }
    }
    while (cl.size() > 1) {
        std::size_t bi = 0, bj = 0;
        double best = -1;
        for (std::size_t i = 0; i < cl.size(); ++i) {
            for (std::size_t j = i + 1; j < cl.size(); ++j) {
                if (best < 0 || dist[i][j] < best) {
                    best = dist[i][j];
                    bi = i;
                    bj = j;
                }
            }
        }
        if (best > eps)
            break;
        cl[bi].insert(cl[bi].end(), cl[bj].begin(), cl[bj].end());
        std::sort(cl[bi].begin(), cl[bi].end());
        for (std::size_t k = 0; k < cl.size(); ++k) {
            if (k == bi || k == bj)
                continue;
            dist[bi][k] = dist[k][bi] =
                std::min(dist[bi][k], dist[bj][k]);
        }
        dist.erase(dist.begin() +
                   static_cast<std::ptrdiff_t>(bj));
        for (auto& row : dist)
            row.erase(row.begin() + static_cast<std::ptrdiff_t>(bj));
        cl.erase(cl.begin() + static_cast<std::ptrdiff_t>(bj));
    }
    out.clusters = cl;

    // A cluster is an outlier group when it is a small minority
    // (<= 1/4 of the machine) and a clear majority cluster exists
    // (>= 1/2 of the machine) to compare against.
    std::size_t majority = 0;
    for (std::size_t k = 1; k < cl.size(); ++k) {
        if (cl[k].size() > cl[majority].size())
            majority = k;
    }
    if (cl[majority].size() * 2 < n)
        return out; // no clear majority; nothing to flag against
    std::vector<double> majorityMean(ncat, 0.0);
    for (std::size_t p : cl[majority]) {
        for (std::size_t c = 0; c < ncat; ++c)
            majorityMean[c] += share[p][c];
    }
    for (std::size_t c = 0; c < ncat; ++c)
        majorityMean[c] /= static_cast<double>(cl[majority].size());

    for (std::size_t k = 0; k < cl.size(); ++k) {
        if (k == majority || cl[k].size() * 4 > n)
            continue;
        for (std::size_t p : cl[k]) {
            FlaggedProc f;
            f.proc = p;
            f.clusterSize = cl[k].size();
            std::vector<std::size_t> order(ncat);
            for (std::size_t c = 0; c < ncat; ++c)
                order[c] = c;
            std::stable_sort(
                order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                    return std::fabs(share[p][a] - majorityMean[a]) >
                           std::fabs(share[p][b] - majorityMean[b]);
                });
            for (std::size_t c : order) {
                if (f.separating.size() >= 3)
                    break;
                if (std::fabs(share[p][c] - majorityMean[c]) < 0.01)
                    break; // sorted: the rest are smaller still
                f.separating.push_back(
                    {c, share[p][c], majorityMean[c]});
            }
            out.flagged.push_back(std::move(f));
        }
    }
    std::sort(out.flagged.begin(), out.flagged.end(),
              [](const FlaggedProc& a, const FlaggedProc& b) {
                  return a.proc < b.proc;
              });
    return out;
}

// ----------------------------------------------------------------
// Desynchronization waves over the manifest timelines.
// ----------------------------------------------------------------

struct Wave {
    std::string timeline;
    std::uint64_t window = 0;
    std::uint64_t onset = 0; ///< simulated cycle the episode starts
    std::uint64_t end = 0;   ///< simulated cycle the episode ends
    double peakSkew = 0;
    std::size_t leader = 0; ///< the straggler the others wait for
    std::string direction;  ///< ascending | descending | flat
    std::string category;   ///< snake category absorbing the skew
};

/** The category with the widest per-proc cycle spread, or the
 *  timeline's own category when per-proc vectors are absent. */
std::string
absorbingCategory(const std::vector<std::vector<double>>& proc_cycles,
                  const std::string& timeline_name)
{
    if (!proc_cycles.empty()) {
        std::size_t best = 0;
        double best_spread = -1;
        for (std::size_t c = 0; c < stats::kNumCategories; ++c) {
            double lo = 0, hi = 0;
            for (std::size_t p = 0; p < proc_cycles.size(); ++p) {
                double v =
                    c < proc_cycles[p].size() ? proc_cycles[p][c] : 0;
                if (p == 0)
                    lo = hi = v;
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
            if (hi - lo > best_spread) {
                best_spread = hi - lo;
                best = c;
            }
        }
        return snakeCategory(static_cast<stats::Category>(best));
    }
    if (timeline_name == "barrier_wait")
        return snakeCategory(stats::Category::Barrier);
    if (timeline_name == "channel_write")
        return snakeCategory(stats::Category::NetAccess);
    return timeline_name;
}

std::vector<Wave>
findWaves(const ManifestRun& run, double band)
{
    std::vector<Wave> waves;
    for (const ManifestTimeline& tl : run.timelines) {
        if (tl.window == 0 || tl.perProc.empty())
            continue;
        const std::size_t n = tl.perProc.size();
        std::size_t nwin = 0;
        for (const auto& row : tl.perProc)
            nwin = std::max(nwin, row.size());
        auto at = [&](std::size_t p, std::size_t w) {
            return w < tl.perProc[p].size() ? tl.perProc[p][w] : 0.0;
        };
        std::vector<double> skew(nwin, 0.0);
        for (std::size_t w = 0; w < nwin; ++w) {
            double lo = at(0, w), hi = at(0, w);
            for (std::size_t p = 1; p < n; ++p) {
                lo = std::min(lo, at(p, w));
                hi = std::max(hi, at(p, w));
            }
            skew[w] = (hi - lo) / static_cast<double>(tl.window);
        }
        for (std::size_t w = 0; w < nwin;) {
            if (skew[w] <= band) {
                ++w;
                continue;
            }
            std::size_t w0 = w;
            while (w < nwin && skew[w] > band)
                ++w;
            std::size_t w1 = w; // exclusive
            Wave wave;
            wave.timeline = tl.name;
            wave.window = tl.window;
            wave.onset = static_cast<std::uint64_t>(w0) * tl.window;
            wave.end = static_cast<std::uint64_t>(w1) * tl.window;
            for (std::size_t i = w0; i < w1; ++i)
                wave.peakSkew = std::max(wave.peakSkew, skew[i]);

            // Episode wait per proc: the leader is the one everyone
            // else waits for, i.e. the minimum-wait processor.
            std::vector<double> tot(n, 0.0);
            for (std::size_t p = 0; p < n; ++p) {
                for (std::size_t i = w0; i < w1; ++i)
                    tot[p] += at(p, i);
            }
            wave.leader = 0;
            for (std::size_t p = 1; p < n; ++p) {
                if (tot[p] < tot[wave.leader])
                    wave.leader = p;
            }

            // Wavefront direction: least-squares slope of episode
            // wait against processor id. A slope whose rise across
            // the machine is under 10% of the wait range is noise.
            double mean_p = static_cast<double>(n - 1) / 2.0;
            double mean_t = 0;
            for (double t : tot)
                mean_t += t;
            mean_t /= static_cast<double>(n);
            double cov = 0, var = 0;
            for (std::size_t p = 0; p < n; ++p) {
                double dp = static_cast<double>(p) - mean_p;
                cov += dp * (tot[p] - mean_t);
                var += dp * dp;
            }
            double slope = var > 0 ? cov / var : 0;
            double range = *std::max_element(tot.begin(), tot.end()) -
                           *std::min_element(tot.begin(), tot.end());
            double rise = std::fabs(slope) * static_cast<double>(n - 1);
            if (range <= 0 || rise < 0.1 * range)
                wave.direction = "flat";
            else
                wave.direction = slope > 0 ? "ascending" : "descending";
            wave.category = absorbingCategory(run.procCycles, tl.name);
            waves.push_back(std::move(wave));
        }
    }
    return waves;
}

// ----------------------------------------------------------------
// Tail statistics (quantileMidpoint over the manifest histograms).
// ----------------------------------------------------------------

struct TailStat {
    std::string name;
    std::uint64_t count = 0;
    double p50 = 0, p90 = 0, p99 = 0; ///< log-midpoint estimates
};

std::vector<TailStat>
findTails(const ManifestRun& run)
{
    std::vector<TailStat> tails;
    for (const ManifestHist& h : run.hists) {
        if (h.hist.count() == 0)
            continue;
        TailStat t;
        t.name = h.name;
        t.count = h.hist.count();
        t.p50 = h.hist.quantileMidpoint(0.5);
        t.p90 = h.hist.quantileMidpoint(0.9);
        t.p99 = h.hist.quantileMidpoint(0.99);
        tails.push_back(std::move(t));
    }
    return tails;
}

// ----------------------------------------------------------------
// Per-scenario assembly.
// ----------------------------------------------------------------

struct ScenarioAnalysis {
    std::string id;
    RunStatus status = RunStatus::Pass;
    int manifestVersion = 0; ///< 0 = no manifest loaded
    std::string note;        ///< why analyses are missing, if so
    bool cached = false;     ///< record was served from the cache
    std::string cacheSource; ///< provenance: where the numbers live
    OutlierAnalysis outliers;
    std::vector<Wave> waves;
    std::vector<TailStat> tails;
};

ScenarioAnalysis
analyzeScenario(const std::string& dir, const RunRecord& rec,
                const AnalyzeOptions& opts)
{
    ScenarioAnalysis a;
    a.id = rec.scenario;
    a.status = rec.status;
    a.cached = rec.cached;
    a.cacheSource = rec.cacheSource;
    if (rec.status == RunStatus::Crash ||
        rec.status == RunStatus::Timeout) {
        a.note = "no analysis: run did not complete";
        return a;
    }
    if (rec.metricsPath.empty()) {
        a.note = "no analysis: record has no metrics manifest";
        return a;
    }
    Manifest m;
    std::string err;
    bool loaded = loadManifest(dir + "/" + rec.metricsPath, m, err);
    if (!loaded && rec.cached && !rec.cacheSource.empty()) {
        // A cache hit copied from another campaign: the manifest
        // lives next to the *original* results file, not here.
        std::size_t slash = rec.cacheSource.find_last_of('/');
        std::string src_dir = slash == std::string::npos
                                  ? std::string(".")
                                  : rec.cacheSource.substr(0, slash);
        std::string err2;
        loaded = loadManifest(src_dir + "/" + rec.metricsPath, m, err2);
    }
    if (!loaded) {
        a.note = "no analysis: " + err;
        return a;
    }
    a.manifestVersion = m.version;
    if (m.runs.empty()) {
        a.note = "no analysis: manifest holds no runs";
        return a;
    }
    const ManifestRun& run = m.runs.front();
    a.outliers = findOutliers(run.procCycles, opts.outlierEps);
    a.waves = findWaves(run, opts.skewBand);
    a.tails = findTails(run);
    return a;
}

// ----------------------------------------------------------------
// Baseline attribution: where did the time go, and which config
// key moved it?
// ----------------------------------------------------------------

struct AttributionGroup {
    std::vector<std::string> keys; ///< sorted changed key names
    std::vector<std::string> scenarios;
    /** Per-category cycle delta (campaign - baseline), per proc. */
    std::vector<double> deltaByCat;
    double deltaTotal = 0; ///< signed total-cycles delta, per proc
    /** Host-side deltas: where did the *wall* time go? Filled when
     *  either side's records carry timing (wall_sec is recorded on
     *  every run; host_phases only under --host-prof). */
    double deltaWallSec = 0;
    bool haveWall = false;
    bool haveHostPhases = false;
    std::map<std::string, double> deltaHostPhases; ///< name -> dsec
    /** Pairs where either side is a cache hit: their simulated
     *  deltas count (bit-identical to an execution), but their host
     *  timings are zeros-by-construction, so they are excluded from
     *  the wall/host-phase attribution above. */
    std::size_t cachedPairs = 0;

    double
    magnitude() const
    {
        double s = 0;
        for (double d : deltaByCat)
            s += std::fabs(d);
        return s;
    }
};

struct StatusChange {
    std::string id;
    RunStatus campaign = RunStatus::Pass;
    RunStatus baseline = RunStatus::Pass;
};

struct Attribution {
    std::vector<AttributionGroup> groups; ///< ranked by magnitude
    std::vector<std::string> onlyInCampaign;
    std::vector<std::string> onlyInBaseline;
    std::vector<StatusChange> statusChanges;
    std::size_t pairs = 0;      ///< matched pass/pass pairs
    double attributedTotal = 0; ///< sum of group magnitudes, cycles
};

std::vector<std::string>
changedKeys(const RunRecord& cur, const RunRecord& base)
{
    std::map<std::string, std::string> a, b;
    for (const auto& [k, v] : cur.config)
        a[k] = v;
    for (const auto& [k, v] : base.config)
        b[k] = v;
    std::set<std::string> keys;
    for (const auto& [k, v] : a)
        keys.insert(k);
    for (const auto& [k, v] : b)
        keys.insert(k);
    std::vector<std::string> changed;
    for (const std::string& k : keys) {
        auto ia = a.find(k);
        auto ib = b.find(k);
        if (ia == a.end() || ib == b.end() ||
            ia->second != ib->second)
            changed.push_back(k);
    }
    // Old stores carry no config; fall back to the hash so a changed
    // scenario is never silently attributed to "nothing changed".
    if (changed.empty() && a.empty() && b.empty() &&
        cur.configHash != base.configHash)
        changed.push_back("(config_hash)");
    return changed;
}

const double*
findValue(const std::vector<std::pair<std::string, double>>& kv,
          const std::string& key)
{
    for (const auto& [k, v] : kv) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

Attribution
attributeDiff(const std::map<std::string, RunRecord>& cur,
              const std::map<std::string, RunRecord>& base)
{
    Attribution out;
    std::map<std::string, AttributionGroup> groups;

    std::set<std::string> ids;
    for (const auto& [id, r] : cur)
        ids.insert(id);
    for (const auto& [id, r] : base)
        ids.insert(id);

    for (const std::string& id : ids) {
        auto ic = cur.find(id);
        auto ib = base.find(id);
        if (ic == cur.end()) {
            out.onlyInBaseline.push_back(id);
            continue;
        }
        if (ib == base.end()) {
            out.onlyInCampaign.push_back(id);
            continue;
        }
        const RunRecord& rc = ic->second;
        const RunRecord& rb = ib->second;
        if (rc.status != rb.status) {
            out.statusChanges.push_back({id, rc.status, rb.status});
            continue;
        }
        if (rc.status != RunStatus::Pass)
            continue; // neither side has a trustworthy breakdown
        ++out.pairs;

        std::vector<std::string> keys = changedKeys(rc, rb);
        std::string sig;
        for (const std::string& k : keys)
            sig += k + ",";
        AttributionGroup& g = groups[sig];
        if (g.keys.empty() && g.scenarios.empty())
            g.keys = keys;
        g.scenarios.push_back(id);
        if (g.deltaByCat.empty())
            g.deltaByCat.assign(stats::kNumCategories, 0.0);
        for (std::size_t c = 0; c < stats::kNumCategories; ++c) {
            std::string key =
                snakeCategory(static_cast<stats::Category>(c));
            const double* vc = findValue(rc.cycles, key);
            const double* vb = findValue(rb.cycles, key);
            g.deltaByCat[c] += (vc ? *vc : 0) - (vb ? *vb : 0);
        }
        g.deltaTotal += rc.totalCyclesPerProc - rb.totalCyclesPerProc;
        if (rc.cached || rb.cached) {
            // A cache-hit record carries zeroed host timings; folding
            // them in would attribute the whole original wall time as
            // a phantom speedup.
            ++g.cachedPairs;
        } else {
            g.deltaWallSec += rc.wallSec - rb.wallSec;
            g.haveWall |= rc.wallSec != 0 || rb.wallSec != 0;
            if (!rc.hostPhases.empty() || !rb.hostPhases.empty()) {
                g.haveHostPhases = true;
                std::set<std::string> phases;
                for (const auto& [k, v] : rc.hostPhases)
                    phases.insert(k);
                for (const auto& [k, v] : rb.hostPhases)
                    phases.insert(k);
                for (const std::string& k : phases) {
                    const double* pc = findValue(rc.hostPhases, k);
                    const double* pb = findValue(rb.hostPhases, k);
                    g.deltaHostPhases[k] +=
                        (pc ? *pc : 0) - (pb ? *pb : 0);
                }
            }
        }
    }

    for (auto& [sig, g] : groups)
        out.groups.push_back(std::move(g));
    std::stable_sort(out.groups.begin(), out.groups.end(),
                     [](const AttributionGroup& a,
                        const AttributionGroup& b) {
                         return a.magnitude() > b.magnitude();
                     });
    for (const AttributionGroup& g : out.groups)
        out.attributedTotal += g.magnitude();
    return out;
}

// ----------------------------------------------------------------
// Rendering: text to the stream, JSON to a file.
// ----------------------------------------------------------------

std::string
joinKeys(const std::vector<std::string>& keys)
{
    if (keys.empty())
        return "(none)";
    std::string s;
    for (const std::string& k : keys)
        s += (s.empty() ? "" : ",") + k;
    return s;
}

void
renderScenarioText(std::ostream& os, const ScenarioAnalysis& a)
{
    char line[256];
    os << "scenario " << a.id << " (" << runStatusName(a.status);
    if (a.cached)
        os << ", cached from " << a.cacheSource;
    os << ")\n";
    if (!a.note.empty()) {
        os << "  " << a.note << "\n";
        return;
    }
    if (!a.outliers.available) {
        os << "  outliers: " << a.outliers.note << "\n";
    } else if (a.outliers.flagged.empty()) {
        std::snprintf(line, sizeof(line),
                      "  outliers: none (%zu cluster(s) over %zu "
                      "proc(s))\n",
                      a.outliers.clusters.size(), a.outliers.nprocs);
        os << line;
    } else {
        std::snprintf(line, sizeof(line),
                      "  outliers: %zu flagged of %zu proc(s), "
                      "%zu cluster(s)\n",
                      a.outliers.flagged.size(), a.outliers.nprocs,
                      a.outliers.clusters.size());
        os << line;
        for (const FlaggedProc& f : a.outliers.flagged) {
            std::snprintf(line, sizeof(line),
                          "    proc %zu (cluster of %zu):", f.proc,
                          f.clusterSize);
            os << line;
            for (const SeparatingCat& s : f.separating) {
                std::snprintf(
                    line, sizeof(line), " %s %+.3f",
                    snakeCategory(
                        static_cast<stats::Category>(s.cat))
                        .c_str(),
                    s.share - s.majorityShare);
                os << line;
            }
            os << '\n';
        }
    }
    if (a.waves.empty()) {
        os << "  waves: none\n";
    } else {
        for (const Wave& w : a.waves) {
            std::snprintf(
                line, sizeof(line),
                "  wave %s: onset %llu, end %llu, peak skew %.3f, "
                "leader proc %zu, %s, category %s\n",
                w.timeline.c_str(),
                static_cast<unsigned long long>(w.onset),
                static_cast<unsigned long long>(w.end), w.peakSkew,
                w.leader, w.direction.c_str(), w.category.c_str());
            os << line;
        }
    }
    for (const TailStat& t : a.tails) {
        std::snprintf(line, sizeof(line),
                      "  tail %-18s count %8llu p50 %10.1f p90 "
                      "%10.1f p99 %10.1f (log-midpoint)\n",
                      t.name.c_str(),
                      static_cast<unsigned long long>(t.count), t.p50,
                      t.p90, t.p99);
        os << line;
    }
}

void
renderAttributionText(std::ostream& os, const Attribution& attr,
                      const std::string& baseline_dir)
{
    char line[256];
    os << "\nwhere did the time go vs " << baseline_dir << ":\n";
    if (attr.groups.empty())
        os << "  no matched pass/pass scenario pairs\n";
    for (const AttributionGroup& g : attr.groups) {
        std::snprintf(line, sizeof(line),
                      "  [%s] %zu pair(s): total %+.3f Mcycles/proc\n",
                      joinKeys(g.keys).c_str(), g.scenarios.size(),
                      g.deltaTotal / 1e6);
        os << line;
        std::vector<std::size_t> order;
        for (std::size_t c = 0; c < g.deltaByCat.size(); ++c) {
            if (g.deltaByCat[c] != 0)
                order.push_back(c);
        }
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t x, std::size_t y) {
                             return std::fabs(g.deltaByCat[x]) >
                                    std::fabs(g.deltaByCat[y]);
                         });
        std::size_t shown = 0;
        for (std::size_t c : order) {
            if (++shown > 5)
                break;
            std::snprintf(
                line, sizeof(line), "      %-20s %+10.3f\n",
                snakeCategory(static_cast<stats::Category>(c)).c_str(),
                g.deltaByCat[c] / 1e6);
            os << line;
        }
        if (g.haveWall) {
            std::snprintf(line, sizeof(line),
                          "      host wall %+.3f s\n", g.deltaWallSec);
            os << line;
        }
        if (g.cachedPairs > 0) {
            std::snprintf(line, sizeof(line),
                          "      (%zu cached pair(s) excluded from "
                          "host timings)\n",
                          g.cachedPairs);
            os << line;
        }
        if (g.haveHostPhases) {
            // The paper's question, asked of the simulator: which
            // host phase absorbed the wall-time delta?
            std::vector<std::pair<std::string, double>> ph(
                g.deltaHostPhases.begin(), g.deltaHostPhases.end());
            std::stable_sort(ph.begin(), ph.end(),
                             [](const auto& x, const auto& y) {
                                 return std::fabs(x.second) >
                                        std::fabs(y.second);
                             });
            std::size_t nph = 0;
            for (const auto& [k, v] : ph) {
                if (v == 0 || ++nph > 3)
                    break;
                std::snprintf(line, sizeof(line),
                              "      host phase %-12s %+.3f s\n",
                              k.c_str(), v);
                os << line;
            }
        }
    }
    for (const std::string& id : attr.onlyInCampaign)
        os << "  only in campaign: " << id << "\n";
    for (const std::string& id : attr.onlyInBaseline)
        os << "  only in baseline: " << id << "\n";
    for (const StatusChange& s : attr.statusChanges) {
        os << "  status change: " << s.id << " "
           << runStatusName(s.baseline) << " -> "
           << runStatusName(s.campaign) << "\n";
    }
    std::snprintf(line, sizeof(line),
                  "attributed drift: %.3f Mcycles/proc across %zu "
                  "pair(s)\n",
                  attr.attributedTotal / 1e6, attr.pairs);
    os << line;
}

void
writeAnalysisJson(std::ostream& os, const std::string& dir,
                  const AnalyzeOptions& opts,
                  const std::vector<ScenarioAnalysis>& scenarios,
                  const Attribution* attr)
{
    trace::JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    w.kv("schema", "wwtcmp.analysis/1");
    w.kv("generator", "wwtcmp");
    w.kv("campaign", dir);
    w.key("options").beginObject();
    w.kv("outlier_eps", opts.outlierEps);
    w.kv("skew_band", opts.skewBand);
    w.endObject();

    w.key("scenarios").beginArray();
    for (const ScenarioAnalysis& a : scenarios) {
        w.beginObject();
        w.kv("id", a.id);
        w.kv("status", runStatusName(a.status));
        w.kv("manifest_schema", a.manifestVersion);
        if (a.cached) {
            w.kv("cached", true);
            w.kv("cache_source", a.cacheSource);
        }
        if (!a.note.empty())
            w.kv("note", a.note);
        w.key("outliers").beginObject();
        w.kv("available", a.outliers.available);
        w.kv("nprocs",
             static_cast<std::uint64_t>(a.outliers.nprocs));
        w.key("clusters").beginArray();
        for (const auto& cluster : a.outliers.clusters) {
            w.beginArray();
            for (std::size_t p : cluster)
                w.value(static_cast<std::uint64_t>(p));
            w.endArray();
        }
        w.endArray();
        w.key("flagged").beginArray();
        for (const FlaggedProc& f : a.outliers.flagged) {
            w.beginObject();
            w.kv("proc", static_cast<std::uint64_t>(f.proc));
            w.kv("cluster_size",
                 static_cast<std::uint64_t>(f.clusterSize));
            w.key("separating").beginArray();
            for (const SeparatingCat& s : f.separating) {
                w.beginObject();
                w.kv("category",
                     snakeCategory(
                         static_cast<stats::Category>(s.cat)));
                w.kv("share", s.share);
                w.kv("majority_share", s.majorityShare);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.endArray();
        w.endObject();

        w.key("waves").beginArray();
        for (const Wave& wv : a.waves) {
            w.beginObject();
            w.kv("timeline", wv.timeline);
            w.kv("window_cycles", wv.window);
            w.kv("onset_cycle", wv.onset);
            w.kv("end_cycle", wv.end);
            w.kv("peak_skew", wv.peakSkew);
            w.kv("leader_proc",
                 static_cast<std::uint64_t>(wv.leader));
            w.kv("direction", wv.direction);
            w.kv("category", wv.category);
            w.endObject();
        }
        w.endArray();

        w.key("tails").beginArray();
        for (const TailStat& t : a.tails) {
            w.beginObject();
            w.kv("name", t.name);
            w.kv("count", t.count);
            w.kv("p50_mid", t.p50);
            w.kv("p90_mid", t.p90);
            w.kv("p99_mid", t.p99);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();

    if (attr) {
        w.key("baseline").beginObject();
        w.kv("dir", opts.baselineDir);
        w.key("groups").beginArray();
        for (const AttributionGroup& g : attr->groups) {
            w.beginObject();
            w.key("keys").beginArray();
            for (const std::string& k : g.keys)
                w.value(k);
            w.endArray();
            w.key("scenarios").beginArray();
            for (const std::string& id : g.scenarios)
                w.value(id);
            w.endArray();
            w.kv("pairs",
                 static_cast<std::uint64_t>(g.scenarios.size()));
            w.kv("delta_mcycles", g.deltaTotal / 1e6);
            w.key("by_category").beginArray();
            std::vector<std::size_t> order;
            for (std::size_t c = 0; c < g.deltaByCat.size(); ++c) {
                if (g.deltaByCat[c] != 0)
                    order.push_back(c);
            }
            std::stable_sort(order.begin(), order.end(),
                             [&](std::size_t x, std::size_t y) {
                                 return std::fabs(g.deltaByCat[x]) >
                                        std::fabs(g.deltaByCat[y]);
                             });
            for (std::size_t c : order) {
                w.beginObject();
                w.kv("category",
                     snakeCategory(static_cast<stats::Category>(c)));
                w.kv("delta_mcycles", g.deltaByCat[c] / 1e6);
                w.endObject();
            }
            w.endArray();
            w.kv("wall_delta_sec", g.deltaWallSec);
            w.kv("cached_pairs",
                 static_cast<std::uint64_t>(g.cachedPairs));
            if (g.haveHostPhases) {
                w.key("host_phases").beginArray();
                for (const auto& [k, v] : g.deltaHostPhases) {
                    w.beginObject();
                    w.kv("phase", k);
                    w.kv("delta_sec", v);
                    w.endObject();
                }
                w.endArray();
            }
            w.endObject();
        }
        w.endArray();
        w.key("only_in_campaign").beginArray();
        for (const std::string& id : attr->onlyInCampaign)
            w.value(id);
        w.endArray();
        w.key("only_in_baseline").beginArray();
        for (const std::string& id : attr->onlyInBaseline)
            w.value(id);
        w.endArray();
        w.key("status_changes").beginArray();
        for (const StatusChange& s : attr->statusChanges) {
            w.beginObject();
            w.kv("id", s.id);
            w.kv("campaign", runStatusName(s.campaign));
            w.kv("baseline", runStatusName(s.baseline));
            w.endObject();
        }
        w.endArray();
        w.kv("pairs", static_cast<std::uint64_t>(attr->pairs));
        w.kv("attributed_total_mcycles", attr->attributedTotal / 1e6);
        w.endObject();
    }
    w.endObject();
}

} // namespace

int
analyzeCampaign(const std::string& dir, const AnalyzeOptions& opts,
                std::ostream& os)
{
    Store store(dir);
    std::map<std::string, RunRecord> latest = store.loadLatest();
    if (latest.empty()) {
        os << dir << ": no records (run the campaign first)\n";
        return 1;
    }
    int pass = 0, fail = 0, crash = 0, timeout = 0;
    for (const auto& [id, rec] : latest) {
        switch (rec.status) {
          case RunStatus::Pass: ++pass; break;
          case RunStatus::Fail: ++fail; break;
          case RunStatus::Crash: ++crash; break;
          case RunStatus::Timeout: ++timeout; break;
        }
    }
    if (pass == 0) {
        // Nothing here is analyzable; say so instead of emitting an
        // all-"no analysis" report that reads as success.
        char diag[256];
        std::snprintf(diag, sizeof(diag),
                      "%s: no passing records (%zu record(s): %d fail, "
                      "%d crash, %d timeout)\n",
                      dir.c_str(), latest.size(), fail, crash, timeout);
        os << diag;
        return 1;
    }

    os << "analyze " << dir << ": " << latest.size()
       << " scenario(s)\n\n";
    std::vector<ScenarioAnalysis> scenarios;
    for (const auto& [id, rec] : latest) {
        ScenarioAnalysis a = analyzeScenario(dir, rec, opts);
        renderScenarioText(os, a);
        scenarios.push_back(std::move(a));
    }

    Attribution attr;
    bool have_attr = false;
    if (!opts.baselineDir.empty()) {
        std::map<std::string, RunRecord> base =
            Store(opts.baselineDir).loadLatest();
        if (base.empty()) {
            os << opts.baselineDir
               << ": no records (run the baseline first)\n";
            return 1;
        }
        attr = attributeDiff(latest, base);
        have_attr = true;
        renderAttributionText(os, attr, opts.baselineDir);
    }

    if (!opts.jsonPath.empty()) {
        // A failure is named on stderr by writeFileChecked.
        if (!core::writeFileChecked(opts.jsonPath, [&](std::ostream& jf) {
                writeAnalysisJson(jf, dir, opts, scenarios,
                                  have_attr ? &attr : nullptr);
            }))
            return 2;
        // Status goes to stderr: the analysis stream must not depend
        // on where the JSON copy landed (byte-determinism).
        std::fprintf(stderr, "analysis written to %s\n",
                     opts.jsonPath.c_str());
    }
    return 0;
}

} // namespace wwt::exp
