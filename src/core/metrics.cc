#include "core/metrics.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "prof/hostprof.hh"

#include "trace/catapult.hh"
#include "trace/json.hh"

namespace wwt::core
{

namespace
{

void
writeConfig(trace::JsonWriter& w, const MachineConfig& cfg)
{
    w.beginObject();
    w.kv("nprocs", cfg.nprocs);
    w.kv("quantum", cfg.quantum);
    w.kv("net_latency", cfg.netLatency);
    w.kv("barrier_latency", cfg.barrierLatency);
    w.kv("priv_miss_base", cfg.privMissBase);
    w.kv("dram_access", cfg.dramAccess);
    w.kv("net_gap", cfg.netGap);
    w.key("cache").beginObject();
    w.kv("bytes", cfg.cache.bytes);
    w.kv("assoc", cfg.cache.assoc);
    w.kv("block_bytes", cfg.cache.blockBytes);
    w.endObject();
    w.key("tlb").beginObject();
    w.kv("entries", cfg.tlb.entries);
    w.kv("miss_penalty", cfg.tlb.missPenalty);
    w.endObject();
    w.kv("alloc_policy",
         cfg.allocPolicy == mem::AllocPolicy::Local ? "local"
                                                    : "round-robin");
    w.endObject();
}

void
writeCounts(trace::JsonWriter& w, const stats::Counts& c)
{
    w.beginObject();
    w.kv("priv_accesses", c.privAccesses);
    w.kv("priv_misses", c.privMisses);
    w.kv("shared_accesses", c.sharedAccesses);
    w.kv("shared_miss_local", c.sharedMissLocal);
    w.kv("shared_miss_remote", c.sharedMissRemote);
    w.kv("write_faults", c.writeFaults);
    w.kv("tlb_misses", c.tlbMisses);
    w.kv("packets_sent", c.packetsSent);
    w.kv("active_msgs", c.activeMsgs);
    w.kv("channel_writes", c.channelWrites);
    w.kv("sends_posted", c.sendsPosted);
    w.kv("proto_msgs", c.protoMsgs);
    w.kv("invals_sent", c.invalsSent);
    w.kv("write_backs", c.writeBacks);
    w.kv("bytes_data", c.bytesData);
    w.kv("bytes_ctrl", c.bytesCtrl);
    w.kv("lock_acquires", c.lockAcquires);
    w.kv("barriers", c.barriers);
    w.kv("atomic_ops", c.atomicOps);
    w.endObject();
}

void
writeHistogram(trace::JsonWriter& w, const HistogramReport& h)
{
    w.beginObject();
    w.kv("name", h.name);
    w.kv("unit", "cycles");
    w.kv("count", h.hist.count());
    w.kv("sum", h.hist.sum());
    w.kv("min", h.hist.min());
    w.kv("max", h.hist.max());
    w.kv("mean", h.hist.mean());
    w.kv("p50", h.hist.quantile(0.5));
    w.kv("p90", h.hist.quantile(0.9));
    w.kv("p99", h.hist.quantile(0.99));
    w.key("buckets").beginArray();
    for (std::size_t b = 0; b < trace::LogHistogram::kBuckets; ++b) {
        if (h.hist.bucketCount(b) == 0)
            continue;
        w.beginObject();
        w.kv("lo", trace::LogHistogram::bucketLo(b));
        w.kv("hi", trace::LogHistogram::bucketHi(b));
        w.kv("count", h.hist.bucketCount(b));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writePerProc(trace::JsonWriter& w, const MachineReport& rep)
{
    w.key("per_proc").beginArray();
    for (std::size_t p = 0; p < rep.procCycles.size(); ++p) {
        w.beginObject();
        w.kv("proc", static_cast<std::uint64_t>(p));
        std::uint64_t total = 0;
        for (std::uint64_t c : rep.procCycles[p])
            total += c;
        w.kv("total_cycles", total);
        w.key("cycles").beginObject();
        for (std::size_t c = 0; c < stats::kNumCategories; ++c) {
            w.kv(stats::categoryName(static_cast<stats::Category>(c)),
                 rep.procCycles[p][c]);
        }
        w.endObject();
        w.key("counts");
        writeCounts(w, rep.procCounts[p]);
        w.endObject();
    }
    w.endArray();
}

void
writeTimelines(trace::JsonWriter& w, const MachineReport& rep)
{
    w.key("timelines").beginArray();
    for (const TimelineReport& tl : rep.timelines) {
        w.beginObject();
        w.kv("name", tl.name);
        w.kv("unit", "cycles");
        w.kv("window_cycles", static_cast<std::uint64_t>(tl.window));
        w.key("per_proc").beginArray();
        for (const auto& windows : tl.perProc) {
            w.beginArray();
            for (std::uint64_t v : windows)
                w.value(v);
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
}

void
writeRun(trace::JsonWriter& w, const RunMetrics& run)
{
    const MachineReport& rep = run.report;
    w.beginObject();
    w.kv("name", run.name);
    w.key("config");
    writeConfig(w, run.config);
    w.kv("nprocs", rep.nprocs);
    w.kv("elapsed_cycles", static_cast<std::uint64_t>(rep.elapsed));
    w.kv("events_executed", rep.eventsExecuted);

    w.key("phases").beginArray();
    for (std::size_t ph = 0; ph < rep.phaseCycles.size(); ++ph) {
        w.beginObject();
        w.kv("name", rep.phaseNames[ph]);
        w.key("cycles_per_proc").beginObject();
        for (std::size_t c = 0; c < stats::kNumCategories; ++c) {
            w.kv(stats::categoryName(static_cast<stats::Category>(c)),
                 rep.phaseCycles[ph][c]);
        }
        w.endObject();
        w.key("counts");
        writeCounts(w, rep.phaseCounts[ph]);
        w.endObject();
    }
    w.endArray();

    w.key("totals").beginObject();
    w.key("cycles_per_proc").beginObject();
    for (std::size_t c = 0; c < stats::kNumCategories; ++c) {
        auto cat = static_cast<stats::Category>(c);
        w.kv(stats::categoryName(cat), rep.cycles(cat));
    }
    w.endObject();
    w.kv("total_cycles_per_proc", rep.totalCycles());
    w.key("counts");
    writeCounts(w, rep.counts());
    w.endObject();

    w.key("histograms").beginArray();
    for (const auto& h : rep.histograms)
        writeHistogram(w, h);
    w.endArray();

    // Schema /2 additions (docs/observability.md): raw per-processor
    // vectors and, when the run was traced, wait timelines.
    writePerProc(w, rep);
    writeTimelines(w, rep);
    w.endObject();
}

} // namespace

void
writeMetricsJson(std::ostream& os, const std::vector<RunMetrics>& runs)
{
    trace::JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    w.kv("schema", "wwtcmp.metrics/2");
    w.kv("generator", "wwtcmp");
    w.key("runs").beginArray();
    for (const auto& run : runs)
        writeRun(w, run);
    w.endArray();
    w.endObject();
}

void
ArtifactWriter::attach(sim::Engine& engine) const
{
    if (enabled() && !engine.tracer())
        engine.enableTracing();
}

void
ArtifactWriter::addRun(std::string name, const MachineConfig& cfg,
                       sim::Engine& engine, const MachineReport& rep)
{
    prof::ScopedPhase hp(prof::Phase::Trace);
    runs_.push_back({std::move(name), cfg, rep});
    if (const trace::Tracer* tr = engine.tracer())
        tracers_.emplace_back(*tr); // snapshot: the engine may die
    else
        tracers_.emplace_back(std::nullopt);
}

bool
writeFileChecked(const std::string& path,
                 const std::function<void(std::ostream&)>& fill)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    errno = 0;
    fill(os);
    os.close();
    if (!os) {
        int err = errno;
        std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                     err ? std::strerror(err) : "stream error");
        return false;
    }
    return true;
}

bool
ArtifactWriter::write() const
{
    prof::ScopedPhase hp(prof::Phase::Trace);
    bool ok = true;
    if (!metricsPath_.empty()) {
        if (writeFileChecked(metricsPath_, [&](std::ostream& os) {
                writeMetricsJson(os, runs_);
            })) {
            std::printf("metrics manifest written to %s\n",
                        metricsPath_.c_str());
        } else {
            ok = false;
        }
    }
    if (!tracePath_.empty()) {
        std::vector<trace::TracedRun> traced;
        for (std::size_t i = 0; i < runs_.size(); ++i) {
            traced.emplace_back(runs_[i].name,
                                tracers_[i] ? &*tracers_[i] : nullptr);
        }
        if (writeFileChecked(tracePath_, [&](std::ostream& os) {
                trace::writeCatapult(os, traced);
            })) {
            std::printf("trace written to %s "
                        "(open in chrome://tracing or ui.perfetto.dev)\n",
                        tracePath_.c_str());
        } else {
            ok = false;
        }
    }
    return ok;
}

} // namespace wwt::core
