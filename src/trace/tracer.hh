#pragma once

/**
 * @file
 * The simulated-time flight recorder.
 *
 * A Tracer keeps one ring buffer of typed records per track — one
 * track per simulated processor plus an "engine" track for machine-
 * wide events (quantum dispatch, barrier releases) — together with
 * one log-2 latency histogram per latency kind. Hook points throughout
 * the stack (the processor's cycle charges, protocol transactions,
 * network packets, collectives, locks, phase switches) append records
 * in simulated time, so a run can be replayed as a per-processor
 * timeline.
 *
 * Cost discipline: tracing never charges simulated cycles (hooks only
 * observe), so enabling it cannot perturb the attribution the paper's
 * tables are built from. A *disabled* tracer costs exactly one
 * null-pointer branch at each hook. Ring buffers bound memory: when a
 * track overflows, the oldest records are overwritten and counted in
 * dropped(). Ring buffers, flow-id counters, wait timelines and
 * open-lock tables are kept per track, because they are per-processor
 * trace output.
 */

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "sim/types.hh"
#include "stats/category.hh"
#include "trace/histogram.hh"
#include "trace/timeline.hh"

namespace wwt::trace
{

/** The latency distributions the tracer maintains. */
enum class LatencyKind : std::uint8_t {
    MissStall,   ///< cache-miss stalls (private and shared)
    WriteFault,  ///< write-fault (upgrade) stalls
    MsgDelivery, ///< MP packet injection -> arrival
    BarrierWait, ///< blocked at a hardware barrier
    LockHold,    ///< lock acquire-complete -> release
    NumLatencyKinds
};

constexpr std::size_t kNumLatencyKinds =
    static_cast<std::size_t>(LatencyKind::NumLatencyKinds);

/** Stable snake-case name (JSON keys, table rows). */
const char* latencyKindName(LatencyKind k);

/**
 * The per-processor wait timelines the tracer maintains (one Timeline
 * per processor track per kind). These feed the desynchronization-wave
 * detector (`wwtcmp_campaign analyze`): unlike the latency histograms,
 * they keep the *time axis*, so skew between processors is visible as
 * a function of simulated time.
 */
enum class TimelineKind : std::uint8_t {
    BarrierWait,  ///< cycles spent blocked at barriers
    ChannelWrite, ///< cycles spent inside MP channel writes
    NumTimelineKinds
};

constexpr std::size_t kNumTimelineKinds =
    static_cast<std::size_t>(TimelineKind::NumTimelineKinds);

/** Stable snake-case name (JSON keys, table rows). */
const char* timelineKindName(TimelineKind k);

/** Labelled operations recorded as spans on a processor's track. */
enum class OpKind : std::uint8_t {
    AllReduce,
    Broadcast,
    BroadcastValue,
    ChannelWrite,
    LockHold,
    NumOpKinds
};

const char* opKindName(OpKind k);

/** Point events. */
enum class InstantKind : std::uint8_t {
    PhaseSwitch,    ///< a processor switched its statistics phase
    BarrierRelease, ///< a hardware-barrier episode completed
    QuantumEvents,  ///< events dispatched at a quantum boundary
    IdleSkip,       ///< the engine fast-forwarded an idle window
    NumInstantKinds
};

const char* instantKindName(InstantKind k);

/** Cross-processor message flows (rendered as trace arrows). */
enum class FlowKind : std::uint8_t {
    ProtoTxn, ///< directory-protocol transaction (miss -> fill)
    Packet,   ///< MP network packet (send -> receive)
    NumFlowKinds
};

const char* flowKindName(FlowKind k);

/** One fixed-size trace record. */
struct Record {
    enum class Kind : std::uint8_t {
        Span,      ///< tag = stats::Category; [t0, t1)
        OpSpan,    ///< tag = OpKind; [t0, t1)
        Instant,   ///< tag = InstantKind; at t0, arg = payload
        FlowBegin, ///< tag = FlowKind; at t0, id = flow id
        FlowStep,  ///< tag = FlowKind; at t0, id = flow id
        FlowEnd,   ///< tag = FlowKind; at t0, id = flow id
    };

    Kind kind;
    std::uint8_t tag = 0;
    std::uint32_t arg = 0;
    Cycle t0 = 0;
    Cycle t1 = 0;
    std::uint64_t id = 0;
};

/** Per-processor ring buffers of records plus latency histograms. */
class Tracer
{
  public:
    /** Default per-track ring capacity (records). */
    static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

    /**
     * @param nprocs processor-track count; track @c nprocs is the
     *        engine track.
     * @param cap_per_track ring capacity per track, in records.
     */
    explicit Tracer(std::size_t nprocs,
                    std::size_t cap_per_track = kDefaultCapacity);

    std::size_t numTracks() const { return tracks_.size(); }
    NodeId engineTrack() const { return static_cast<NodeId>(nprocs_); }

    // ------------------------------------------------------------------
    // Recording hooks (all O(1), none charges simulated time).
    // ------------------------------------------------------------------

    /**
     * Record cycles [t0, t1) attributed to @p c on track @p p.
     * Contiguous spans of the same category merge into one record.
     */
    void span(NodeId p, stats::Category c, Cycle t0, Cycle t1);

    /** Record a labelled operation span. */
    void op(NodeId p, OpKind k, Cycle t0, Cycle t1);

    /** Record a point event. */
    void instant(NodeId p, InstantKind k, Cycle t, std::uint32_t arg = 0);

    /**
     * Allocate a fresh flow id for a flow originating on track @p p:
     * a per-track counter tagged with the track number, so a flow's
     * id names the processor that started it.
     */
    std::uint64_t
    newFlowId(NodeId p)
    {
        return ((static_cast<std::uint64_t>(p) + 1) << 40) |
               ++tracks_[p].flowSeq;
    }

    void flowBegin(NodeId p, FlowKind k, std::uint64_t id, Cycle t);
    void flowStep(NodeId p, FlowKind k, std::uint64_t id, Cycle t);
    void flowEnd(NodeId p, FlowKind k, std::uint64_t id, Cycle t);

    /** Record a sample in the @p k histogram. */
    void latency(LatencyKind k, Cycle v)
    {
        hist_[static_cast<std::size_t>(k)].record(v);
    }

    /** Lock-hold bracketing: hold time runs acquire -> release. */
    void lockAcquired(NodeId p, std::uint64_t lock, Cycle t);
    void lockReleased(NodeId p, std::uint64_t lock, Cycle t);

    /** Phase-marker API: processor @p p entered phase @p phase. */
    void phaseSwitch(NodeId p, std::size_t phase, Cycle t);

    // ------------------------------------------------------------------
    // Inspection / export.
    // ------------------------------------------------------------------

    /** The @p k latency distribution. */
    const LogHistogram&
    histogram(LatencyKind k) const
    {
        return hist_[static_cast<std::size_t>(k)];
    }

    /**
     * Track @p p's wait timeline of kind @p k. Fed from the same hook
     * points as spans (span() for barrier waits, op() for channel
     * writes), so it costs nothing when tracing is disabled.
     */
    const Timeline&
    timeline(NodeId p, TimelineKind k) const
    {
        return tracks_[p].timelines[static_cast<std::size_t>(k)];
    }

    /** Records currently held for @p track. */
    std::size_t recordCount(NodeId track) const
    {
        return tracks_[track].buf.size();
    }

    /** Records overwritten by ring wrap-around on @p track. */
    std::uint64_t dropped(NodeId track) const
    {
        return tracks_[track].dropped;
    }

    /** Visit @p track's records oldest-first. */
    template <typename Fn>
    void
    forEach(NodeId track, Fn&& fn) const
    {
        const Track& t = tracks_[track];
        for (std::size_t i = 0; i < t.buf.size(); ++i)
            fn(t.buf[(t.head + i) % t.buf.size()]);
    }

  private:
    struct Track {
        std::vector<Record> buf;
        std::size_t head = 0; ///< oldest record once the ring wrapped
        std::uint64_t dropped = 0;
        /** This track's wait timelines (simulated-time axis). */
        std::array<Timeline, kNumTimelineKinds> timelines{};
        std::uint64_t flowSeq = 0;
        /** Open lock-hold intervals on this track, keyed by lock id. */
        std::map<std::uint64_t, Cycle> openLocks;
    };

    void push(NodeId track, const Record& r);
    Record* lastRecord(NodeId track);

    std::size_t nprocs_;
    std::size_t cap_;
    std::vector<Track> tracks_;
    std::array<LogHistogram, kNumLatencyKinds> hist_{};
};

} // namespace wwt::trace
