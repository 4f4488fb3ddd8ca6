#pragma once

/**
 * @file
 * Machine configuration: the hardware parameters of Tables 1-3.
 *
 * Both simulated machines share the Table 1 base (cache, TLB, page
 * size, message and barrier latency, DRAM). Table 2 parameterizes the
 * message-passing network interface; Table 3 the Dir_nNB directory
 * machine. Defaults reproduce the paper; benches override single
 * fields for the ablations (1 MB cache, local allocation).
 */

#include <cstddef>
#include <cstdint>

#include "mem/allocator.hh"
#include "sim/types.hh"

namespace wwt::core
{

/** Table 1 cache parameters. */
struct CacheConfig {
    std::size_t bytes = 256 * 1024; ///< 256 KB (1 MB in Table 16)
    std::size_t assoc = 4;
    std::size_t blockBytes = 32;
    std::uint64_t seed = 0x5eedcafe; ///< replacement PRNG seed
};

/** Table 1 TLB parameters. */
struct TlbConfig {
    std::size_t entries = 64;
    /** Refill penalty; the paper reports TLB cycles but not the
     *  per-miss cost, so this is our (documented) choice. */
    Cycle missPenalty = 36;
};

/** Everything both machines agree on, plus per-machine cost tables. */
struct MachineConfig {
    std::size_t nprocs = 32;

    // ---- Table 1: common hardware ----
    Cycle netLatency = 100;     ///< remote message latency
    Cycle barrierLatency = 100; ///< from last arrival
    Cycle privMissBase = 11;    ///< + replacement if a block is replaced
    Cycle dramAccess = 10;      ///< added to every miss that hits DRAM
    CacheConfig cache;
    TlbConfig tlb;

    // ---- Table 2: message-passing machine ----
    Cycle mpReplacement = 1; ///< infinite write buffer
    Cycle niStatusAccess = 5;
    Cycle niWriteTagDest = 5;
    Cycle niSendWords = 15; ///< send 5 words, including the stores
    Cycle niRecvWords = 15; ///< receive 5 words, including the loads
    /** Software cost of dispatching a received packet to its
     *  active-message handler (CMAML dispatch loop). */
    Cycle amDispatch = 20;
    /** Per-packet software cost in the channel send loop (CMMD's
     *  channel bookkeeping; the paper's "Lib Comp" implies roughly
     *  150 cycles of software per 20-byte packet end to end). */
    Cycle chanSendPerPacket = 50;
    /** Per-packet software cost in the data-packet handler. */
    Cycle chanRecvPerPacket = 50;

    // ---- Table 3: shared-memory machine ----
    Cycle selfLatency = 10;        ///< message to self
    Cycle smSharedMissBase = 19;   ///< + replacement if a block replaced
    Cycle smInvalidate = 3;        ///< + replacement at the invalidatee
    Cycle smReplPrivate = 1;       ///< replacement: private block
    Cycle smReplSharedClean = 5;   ///< replacement: shared, clean
    Cycle smReplSharedDirty = 13;  ///< replacement: shared, dirty
    Cycle dirBase = 10;
    Cycle dirBlockRecv = 8;
    Cycle dirMsgSend = 5;
    Cycle dirBlockSend = 8;
    mem::AllocPolicy allocPolicy = mem::AllocPolicy::RoundRobin;

    // ---- Extension: network contention (0 = off, as in the paper) ----
    /** Minimum spacing between packets on one node's link. */
    Cycle netGap = 0;

    // ---- Simulation ----
    Cycle quantum = 100;           ///< WWT causality window
    std::size_t fiberStack = 1u << 20;
    /** Per-processor fast-hit filter in front of the cache/TLB model.
     *  A pure host-side speedup: results are bit-identical either way
     *  (CI enforces this; see docs/performance.md). Off exists only
     *  for that gate and for debugging. */
    bool fastHit = true;

    /** The paper's machine (32 processors, Tables 1-3). */
    static MachineConfig cm5Like() { return MachineConfig{}; }
};

/** Packet size of the message-passing machine (Section 4). */
constexpr std::size_t kMpPacketBytes = 20;
/** Payload words per packet (tag travels beside them). */
constexpr std::size_t kMpPacketWords = 5;
/** Protocol message size on the shared-memory machine. */
constexpr std::size_t kSmMsgBytes = 40;
/** Control bytes accompanying a cache-block transfer (40 - 32). */
constexpr std::size_t kSmMsgHeaderBytes = kSmMsgBytes - kBlockBytes;

} // namespace wwt::core
