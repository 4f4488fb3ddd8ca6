#pragma once

/**
 * @file
 * The content-addressed result cache of the campaign service.
 *
 * Scenarios are content-addressed by their config hash (FNV-1a over
 * the scenario's config key/value pairs, exp/scenario.cc): two
 * scenarios with the same hash are the same experiment, whatever
 * their ids or which campaign spawned them. The simulator is
 * deterministic, so a passing record for a hash is *proof* of that
 * experiment's outcome — re-executing it can only reproduce the same
 * numbers.
 *
 * CacheIndex folds one or more campaign stores into a map
 * config-hash -> best proven record. `run`/`resume` consult it before
 * spawning a child: a hit is adopted by appending a *cache-hit
 * record* — a verbatim copy of the proven record under the requesting
 * scenario's id, with host timings zeroed (nothing ran here) and
 * provenance fields naming exactly which file and line the numbers
 * came from (the LAMMPS-note rule, docs/campaigns.md).
 *
 * Two subtleties:
 *  - Only *pass* records enter the index. This is also the fix for
 *    the resume-vs-repeat bug: repeat instances (`id.r2`, `id.r3`)
 *    share one hash, so a timeout recorded for one instance never
 *    forces a re-run when a sibling already proved the hash passes.
 *  - Originals beat cache hits. When a store holds both an executed
 *    record and cache-hit copies of it, the index points at the
 *    execution, so provenance chains stay one hop deep and
 *    cacheWallSec is always a real measured wall time.
 */

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/store.hh"

namespace wwt::svc
{

/** Where a proven record lives. */
struct CacheHit {
    exp::RunRecord record;  ///< the proven passing record, verbatim
    std::string sourceFile; ///< results.jsonl holding it
    std::uint64_t line = 0; ///< 1-based line within sourceFile
};

/** config-hash -> proven passing record, over N campaign stores. */
class CacheIndex
{
  public:
    /**
     * Fold the results file of the store at @p dir into the index.
     * Unreadable stores are simply empty; corrupt interior lines and
     * worker shard files throw (Store::scan, the same policy as
     * Store::loadLatest).
     */
    void addStore(const std::string& dir);

    /** The proven record for @p config_hash, or nullptr. */
    const CacheHit* find(const std::string& config_hash) const;

    /** Number of distinct proven hashes. */
    std::size_t size() const { return byHash_.size(); }

    /**
     * Build the cache-hit record that adopts @p hit for scenario id
     * @p scenario_id: verbatim simulated fields, zeroed host timings,
     * provenance filled in, attempts 0 (no child ran).
     */
    static exp::RunRecord cacheRecord(const CacheHit& hit,
                                      const std::string& scenario_id);

  private:
    std::map<std::string, CacheHit> byHash_;
};

} // namespace wwt::svc
