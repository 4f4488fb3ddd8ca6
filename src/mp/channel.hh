#pragma once

/**
 * @file
 * CMMD-style channels: pre-negotiated bulk transfers (Section 4.1).
 *
 * A channel endpoint on the receiver names a destination buffer; the
 * sender streams the payload as 20-byte packets (16 data bytes each
 * behind a one-word header), and a data-packet handler on the receiver
 * stores each packet into place. Programs with static communication
 * (EM3D, LCP) use channels directly to avoid per-message handshakes,
 * exactly as footnote 4 of the paper describes.
 *
 * Two endpoint flavors:
 *
 *  - *Static* endpoints (openStatic/waitEpochs) describe a repeating
 *    transfer: a fixed buffer refilled once per epoch. Senders may run
 *    a whole epoch ahead of the receiver (iterative codes do); byte
 *    counters are absolute so early arrivals are handled naturally.
 *
 *  - *Dynamic* endpoints (armRecv/waitRecv) describe a one-shot
 *    transfer. The receiver must arm the endpoint before the event
 *    that releases the sender (e.g. before contributing to the
 *    reduction whose completion triggers the broadcast), which every
 *    well-formed CMMD program guarantees.
 *
 * Only openStatic() and armRecv() create endpoints. Waiting on,
 * polling, or receiving data for a channel that was never opened or
 * armed throws std::logic_error naming the node and the channel,
 * instead of silently "completing" against an empty endpoint. Because
 * no lookup on the data path inserts, the endpoint table cannot rehash
 * under a data-packet handler, so the endpoint reference onData()
 * holds across advance() cannot be invalidated.
 */

#include <cstdint>

#include "core/config.hh"
#include "mp/am.hh"
#include "mp/mp_memory.hh"
#include "sim/flat_map.hh"

namespace wwt::mp
{

/** Per-node channel endpoint table plus the sender-side writer. */
class ChannelMgr
{
  public:
    ChannelMgr(sim::Processor& p, ActiveMessages& am, MpMemory& mem,
               const core::MachineConfig& cfg);

    /** Bytes of payload carried by each full data packet. */
    static constexpr std::size_t kDataPerPacket = 16;

    /**
     * Receiver side: declare a static endpoint: every epoch delivers
     * exactly @p epoch_bytes into the fixed buffer at @p dst.
     * @p epoch_bytes must be a positive multiple of 4.
     */
    void openStatic(std::uint32_t chan, Addr dst, std::size_t epoch_bytes);

    /** Receiver side: poll until @p epochs epochs have fully arrived. */
    void waitEpochs(std::uint32_t chan, std::uint64_t epochs);

    /** Completed epochs on a static endpoint (cheap check). */
    std::uint64_t epochsDone(std::uint32_t chan);

    /**
     * Receiver side: one-shot endpoint expecting @p nbytes at @p dst.
     * Must be re-armed for each transfer, before the sender can
     * possibly start writing. @p nbytes must be a multiple of 4.
     */
    void armRecv(std::uint32_t chan, Addr dst, std::size_t nbytes);

    /** Receiver side: has the armed one-shot transfer completed? */
    bool recvDone(std::uint32_t chan);

    /** Receiver side: poll until the armed transfer completes. */
    void waitRecv(std::uint32_t chan);

    /**
     * Sender side: stream @p nbytes from local @p src to channel
     * @p chan on node @p dest. For static endpoints @p nbytes must
     * equal the endpoint's epoch size. Returns once every packet is
     * injected (transfers are one-way).
     */
    void write(NodeId dest, std::uint32_t chan, Addr src,
               std::size_t nbytes);

    /** Total channel-write operations issued by this node. */
    std::uint64_t writesIssued() const { return writesIssued_; }

  private:
    struct Endpoint {
        Addr dst = 0;
        std::size_t epochBytes = 0;   ///< static endpoints only
        std::uint64_t expect = 0;     ///< absolute target byte count
        std::uint64_t got = 0;        ///< absolute received byte count
        bool isStatic = false;
    };

    void onData(NodeId src, const AmArgs& args);

    /** The endpoint for @p chan; throws if it was never created. */
    Endpoint& endpoint(std::uint32_t chan, const char* op);

    sim::Processor& p_;
    ActiveMessages& am_;
    MpMemory& mem_;
    const core::MachineConfig& cfg_;
    std::uint32_t dataHandler_;
    sim::FlatMap<Endpoint> eps_{1};
    std::uint64_t writesIssued_ = 0;
};

} // namespace wwt::mp
