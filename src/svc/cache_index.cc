#include "svc/cache_index.hh"

namespace wwt::svc
{

void
CacheIndex::addStore(const std::string& dir)
{
    exp::Store store(dir);
    const std::string file = store.resultsPath();
    store.scan([&](std::size_t line, exp::RunRecord&& rec) {
        if (rec.status != exp::RunStatus::Pass || rec.configHash.empty())
            return;
        // Materialize the key before moving rec: emplace's argument
        // evaluation order is unspecified, so the CacheHit move could
        // gut rec.configHash first.
        std::string key = rec.configHash;
        auto it = byHash_.find(key);
        if (it == byHash_.end()) {
            byHash_.emplace(std::move(key),
                            CacheHit{std::move(rec), file, line});
            return;
        }
        // An executed record supersedes a cache-hit copy so provenance
        // always points one hop to a real run; otherwise first-found
        // wins (deterministic: store order, then line order).
        if (it->second.record.cached && !rec.cached)
            it->second = CacheHit{std::move(rec), file, line};
    });
}

const CacheHit*
CacheIndex::find(const std::string& config_hash) const
{
    auto it = byHash_.find(config_hash);
    return it == byHash_.end() ? nullptr : &it->second;
}

exp::RunRecord
CacheIndex::cacheRecord(const CacheHit& hit,
                        const std::string& scenario_id)
{
    exp::RunRecord r = hit.record;
    r.scenario = scenario_id;
    r.attempts = 0; // no child ran for this record
    r.error.clear();
    // Host resource use describes the *original* execution, not this
    // adoption; zero it so host-side analyses never double-count.
    // The original wall time survives in cacheWallSec (through a
    // chain of hits, the measured time of the real run).
    double wall =
        hit.record.cached ? hit.record.cacheWallSec : hit.record.wallSec;
    r.wallSec = 0;
    r.userSec = 0;
    r.sysSec = 0;
    r.maxRssKb = 0;
    r.hostPhases.clear();
    r.cached = true;
    r.cacheSource = hit.sourceFile;
    r.cacheLine = hit.line;
    r.cacheWallSec = wall;
    return r;
}

} // namespace wwt::svc
