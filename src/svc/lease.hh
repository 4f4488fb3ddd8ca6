#pragma once

/**
 * @file
 * Scenario leases for cooperating campaign runners.
 *
 * When several runner processes (`--workers a,b --worker a`) share
 * one store directory, each scenario must be executed by exactly one
 * of them at a time. The claim is a lease file under <dir>/leases/:
 *
 *   <dir>/leases/<scenario-id>.lease   ->  "<owner> <heartbeat>\n"
 *
 * where <heartbeat> is CLOCK_REALTIME seconds, rewritten by the
 * owner while its child runs. A lease whose heartbeat is older than
 * the timeout is *stale*: its owner is presumed dead and any worker
 * may steal the claim, which is how a crashed worker's scenarios get
 * re-issued.
 *
 * Claim protocol: fresh leases are written to a temp file and
 * link(2)ed into place, which fails if the lease exists (the kernel
 * arbitrates, and no reader ever sees a lease without its line);
 * stale leases are stolen by writing a temp file
 * and rename(2)-ing it over the lease (atomic replacement), then
 * reading the lease back to verify ownership. Two workers racing to
 * steal the same stale lease can, in a narrow window, both conclude
 * they own it; the result is a double *execution*, never a corrupt
 * store — the simulator is deterministic, each worker appends to its
 * own shard file, and the store fold prefers the passing record — so
 * the protocol trades a rare duplicate run for never needing a lock
 * server (docs/campaigns.md, "service mode").
 */

#include <set>
#include <string>

namespace wwt::svc
{

/** The lease directory, seen from one owning worker. */
class LeaseDir
{
  public:
    /** @p timeout_sec: heartbeats older than this are stale. */
    LeaseDir(std::string dir, std::string owner, double timeout_sec);

    const std::string& ownerName() const { return owner_; }
    double timeoutSec() const { return timeoutSec_; }

    /** What a lease file currently says. */
    struct Info {
        bool exists = false;
        std::string owner;
        double heartbeat = 0; ///< CLOCK_REALTIME seconds
    };

    Info read(const std::string& id) const;
    bool stale(const Info& info) const;

    /**
     * Try to claim @p id: create when absent, re-assert when already
     * ours, steal when stale. @return true when we hold the lease.
     */
    bool acquire(const std::string& id);

    /** Refresh the heartbeat of every lease we hold. */
    void heartbeat();

    /** Drop @p id's lease (after its record has been appended). */
    void release(const std::string& id);

    const std::set<std::string>& held() const { return held_; }

    /** CLOCK_REALTIME in seconds — comparable across processes. */
    static double now();

  private:
    std::string path(const std::string& id) const;
    /** Write "<owner> <now>" to a private temp file; its path, or
     *  "" on failure. */
    std::string writeTemp(const std::string& id) const;
    /** Write "<owner> <now>" via temp + rename; true on success. */
    bool writeOwned(const std::string& id) const;

    std::string dir_;
    std::string owner_;
    double timeoutSec_;
    std::set<std::string> held_;
};

} // namespace wwt::svc
