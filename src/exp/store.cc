#include "exp/store.hh"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "audit/shapes.hh"
#include "trace/json.hh"

namespace wwt::exp
{

namespace
{

/** snake_case category key (mirrors scenario.cc's shape metrics). */
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

void
makeDir(const std::string& path)
{
    if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST)
        throw std::runtime_error("cannot create directory " + path +
                                 ": " + std::strerror(errno));
}

double
numberOr(const audit::JsonValue& obj, const std::string& key,
         double fallback)
{
    const audit::JsonValue* v = obj.find(key);
    return v && v->kind == audit::JsonValue::Kind::Number ? v->number
                                                          : fallback;
}

std::string
stringOr(const audit::JsonValue& obj, const std::string& key,
         const std::string& fallback)
{
    const audit::JsonValue* v = obj.find(key);
    return v && v->kind == audit::JsonValue::Kind::String ? v->string
                                                          : fallback;
}

bool
boolOr(const audit::JsonValue& obj, const std::string& key,
       bool fallback)
{
    const audit::JsonValue* v = obj.find(key);
    return v && v->kind == audit::JsonValue::Kind::Bool ? v->boolean
                                                        : fallback;
}

/**
 * Throw if @p dir holds a results.<worker>.jsonl shard from the
 * removed sharded-worker mode. Its records would need the old
 * cross-file fold, so reading results.jsonl alone could report a
 * scenario's superseded outcome.
 */
void
refuseWorkerShards(const std::string& dir)
{
    DIR* d = ::opendir(dir.c_str());
    if (!d)
        return;
    std::string shard;
    while (const dirent* e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name.size() > 14 && name.rfind("results.", 0) == 0 &&
            name.compare(name.size() - 6, 6, ".jsonl") == 0) {
            shard = dir + "/" + name;
            break;
        }
    }
    ::closedir(d);
    if (!shard.empty())
        throw std::runtime_error(
            shard +
            ": worker shard file; sharded workers (--workers) were "
            "removed and their stores are no longer read. Re-run the "
            "campaign into a fresh directory");
}

} // namespace

const char*
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Pass: return "pass";
      case RunStatus::Fail: return "fail";
      case RunStatus::Crash: return "crash";
      case RunStatus::Timeout: return "timeout";
    }
    return "?";
}

void
RunRecord::setReport(const core::MachineReport& rep)
{
    elapsedCycles = static_cast<double>(rep.elapsed);
    totalCyclesPerProc = rep.totalCycles();
    cycles.clear();
    for (std::size_t i = 0; i < stats::kNumCategories; ++i) {
        auto cat = static_cast<stats::Category>(i);
        cycles.emplace_back(snakeCategory(cat), rep.cycles(cat));
    }
    stats::Counts c = rep.counts();
    counts.clear();
    counts.emplace_back("priv_misses",
                        static_cast<double>(c.privMisses));
    counts.emplace_back("shared_miss_local",
                        static_cast<double>(c.sharedMissLocal));
    counts.emplace_back("shared_miss_remote",
                        static_cast<double>(c.sharedMissRemote));
    counts.emplace_back("write_faults",
                        static_cast<double>(c.writeFaults));
    counts.emplace_back("tlb_misses",
                        static_cast<double>(c.tlbMisses));
    counts.emplace_back("packets_sent",
                        static_cast<double>(c.packetsSent));
    counts.emplace_back("channel_writes",
                        static_cast<double>(c.channelWrites));
    counts.emplace_back("proto_msgs", static_cast<double>(c.protoMsgs));
    counts.emplace_back("bytes_data", static_cast<double>(c.bytesData));
    counts.emplace_back("bytes_ctrl", static_cast<double>(c.bytesCtrl));
    counts.emplace_back("lock_acquires",
                        static_cast<double>(c.lockAcquires));
    counts.emplace_back("barriers", static_cast<double>(c.barriers));
}

std::string
RunRecord::toJsonLine() const
{
    std::ostringstream os;
    {
        trace::JsonWriter w(os, /*pretty=*/false);
        w.beginObject();
        w.kv("schema", "wwtcmp.campaign-record/1");
        w.kv("scenario", scenario);
        w.kv("config_hash", configHash);
        w.kv("status", runStatusName(status));
        w.kv("attempts", attempts);
        w.kv("app", app);
        w.kv("machine", machine);
        w.key("config").beginObject();
        for (const auto& [k, v] : config)
            w.kv(k, v);
        w.endObject();
        w.kv("elapsed_cycles", elapsedCycles);
        w.kv("total_cycles_per_proc", totalCyclesPerProc);
        w.key("cycles_per_proc").beginObject();
        for (const auto& [k, v] : cycles)
            w.kv(k, v);
        w.endObject();
        w.key("counts").beginObject();
        for (const auto& [k, v] : counts)
            w.kv(k, v);
        w.endObject();
        w.kv("wall_sec", wallSec);
        w.kv("user_sec", userSec);
        w.kv("sys_sec", sysSec);
        w.kv("max_rss_kb", maxRssKb);
        if (!hostPhases.empty()) {
            w.key("host_phases").beginObject();
            for (const auto& [k, v] : hostPhases)
                w.kv(k, v);
            w.endObject();
        }
        w.kv("metrics", metricsPath);
        w.kv("shape_violations", shapeViolations);
        w.kv("error", error);
        // Provenance keys only exist on cache-hit records so that
        // executed records keep their historical byte layout (the
        // determinism diff gates compare stores byte-for-byte).
        if (cached) {
            w.kv("cached", true);
            w.kv("cache_source", cacheSource);
            w.kv("cache_line", cacheLine);
            w.kv("cache_wall_sec", cacheWallSec);
        }
        w.endObject();
    }
    return os.str();
}

RunRecord
RunRecord::fromJsonLine(const std::string& line)
{
    audit::JsonValue doc = audit::parseJson(line);
    if (doc.kind != audit::JsonValue::Kind::Object)
        throw std::runtime_error("record line is not an object");
    if (stringOr(doc, "schema", "") != "wwtcmp.campaign-record/1")
        throw std::runtime_error(
            "record schema is not wwtcmp.campaign-record/1");

    RunRecord r;
    r.scenario = stringOr(doc, "scenario", "");
    if (r.scenario.empty())
        throw std::runtime_error("record lacks a scenario id");
    r.configHash = stringOr(doc, "config_hash", "");
    std::string status = stringOr(doc, "status", "");
    if (status == "pass")
        r.status = RunStatus::Pass;
    else if (status == "fail")
        r.status = RunStatus::Fail;
    else if (status == "crash")
        r.status = RunStatus::Crash;
    else if (status == "timeout")
        r.status = RunStatus::Timeout;
    else
        throw std::runtime_error("record has unknown status \"" +
                                 status + "\"");
    r.attempts = static_cast<int>(numberOr(doc, "attempts", 1));
    r.app = stringOr(doc, "app", "");
    r.machine = stringOr(doc, "machine", "");
    if (const audit::JsonValue* cfg = doc.find("config")) {
        for (const auto& [k, v] : cfg->object) {
            if (v.kind == audit::JsonValue::Kind::String)
                r.config.emplace_back(k, v.string);
        }
    }
    r.elapsedCycles = numberOr(doc, "elapsed_cycles", 0);
    r.totalCyclesPerProc = numberOr(doc, "total_cycles_per_proc", 0);
    if (const audit::JsonValue* cy = doc.find("cycles_per_proc")) {
        for (const auto& [k, v] : cy->object)
            r.cycles.emplace_back(k, v.number);
    }
    if (const audit::JsonValue* ct = doc.find("counts")) {
        for (const auto& [k, v] : ct->object)
            r.counts.emplace_back(k, v.number);
    }
    r.wallSec = numberOr(doc, "wall_sec", 0);
    r.userSec = numberOr(doc, "user_sec", 0);
    r.sysSec = numberOr(doc, "sys_sec", 0);
    r.maxRssKb = numberOr(doc, "max_rss_kb", 0);
    if (const audit::JsonValue* hp = doc.find("host_phases")) {
        for (const auto& [k, v] : hp->object)
            r.hostPhases.emplace_back(k, v.number);
    }
    r.metricsPath = stringOr(doc, "metrics", "");
    r.shapeViolations =
        static_cast<int>(numberOr(doc, "shape_violations", 0));
    r.error = stringOr(doc, "error", "");
    r.cached = boolOr(doc, "cached", false);
    if (r.cached) {
        r.cacheSource = stringOr(doc, "cache_source", "");
        r.cacheLine = static_cast<std::uint64_t>(
            numberOr(doc, "cache_line", 0));
        r.cacheWallSec = numberOr(doc, "cache_wall_sec", 0);
    }
    return r;
}

bool
Store::exists() const
{
    struct stat st;
    return ::stat(resultsPath().c_str(), &st) == 0;
}

void
Store::create() const
{
    makeDir(dir_);
    makeDir(dir_ + "/logs");
    makeDir(dir_ + "/metrics");
    makeDir(dir_ + "/hostprof");
    makeDir(dir_ + "/tmp");
}

void
Store::append(const RunRecord& rec) const
{
    std::ofstream os(resultsPath(), std::ios::app);
    os << rec.toJsonLine() << '\n';
    // The line sits in the stream buffer until the close; only the
    // close's flush can report a full disk.
    os.close();
    if (!os)
        throw std::runtime_error("cannot append to " + resultsPath() +
                                 ": " + std::strerror(errno));
}

void
Store::publishRecord(const std::string& id,
                     const std::string& line) const
{
    const std::string partial = tmpPartialPath(id);
    std::ofstream os(partial, std::ios::trunc);
    os << line << '\n';
    os.close();
    if (os && std::rename(partial.c_str(),
                          tmpRecordPath(id).c_str()) == 0)
        return;
    int err = errno;
    std::remove(partial.c_str());
    throw std::runtime_error("cannot publish the record to " + partial +
                             ": " + std::strerror(err));
}

std::optional<std::string>
Store::takeRecord(const std::string& id) const
{
    const std::string path = tmpRecordPath(id);
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::string line;
    bool got = static_cast<bool>(std::getline(in, line));
    in.close();
    std::remove(path.c_str());
    return got ? std::optional<std::string>(std::move(line))
               : std::nullopt;
}

bool
Store::discardPartial(const std::string& id) const
{
    return std::remove(tmpPartialPath(id).c_str()) == 0;
}

void
Store::scan(const std::function<void(std::size_t, RunRecord&&)>& cb) const
{
    refuseWorkerShards(dir_);
    const std::string path = resultsPath();
    std::ifstream in(path);
    if (!in)
        return;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);

    // A truncated or garbled *final* line means the writer was
    // interrupted mid-append (crash, full disk); every earlier record
    // is still intact, so salvage them with a warning. Garbage
    // anywhere else has no benign explanation — refuse the store.
    std::size_t last = lines.size();
    while (last > 0 && lines[last - 1].empty())
        --last;
    for (std::size_t i = 0; i < last; ++i) {
        if (lines[i].empty())
            continue;
        try {
            cb(i + 1, RunRecord::fromJsonLine(lines[i]));
        } catch (const std::exception& e) {
            if (i + 1 == last) {
                std::fprintf(stderr,
                             "warning: %s:%zu: skipping malformed "
                             "trailing record (%s)\n",
                             path.c_str(), i + 1, e.what());
                break;
            }
            throw std::runtime_error(path + ":" +
                                     std::to_string(i + 1) + ": " +
                                     e.what());
        }
    }
}

std::map<std::string, RunRecord>
Store::loadLatest() const
{
    std::map<std::string, RunRecord> latest;
    scan([&](std::size_t, RunRecord&& r) {
        latest.insert_or_assign(r.scenario, std::move(r));
    });
    return latest;
}

bool
Store::satisfiedBy(const std::map<std::string, RunRecord>& latest,
                   const Scenario& s) const
{
    auto it = latest.find(s.id);
    return it != latest.end() && it->second.status == RunStatus::Pass &&
           it->second.configHash == s.configHash();
}

} // namespace wwt::exp
