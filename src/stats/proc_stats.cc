#include "stats/proc_stats.hh"

namespace wwt::stats
{

const char*
categoryName(Category c)
{
    switch (c) {
      case Category::Computation: return "Computation";
      case Category::LocalMiss: return "Local Misses";
      case Category::LibComp: return "Lib Comp";
      case Category::LibMiss: return "Lib Misses";
      case Category::NetAccess: return "Network Access";
      case Category::Barrier: return "Barrier";
      case Category::SharedMiss: return "Shared Misses";
      case Category::WriteFault: return "Write Faults";
      case Category::TlbMiss: return "TLB Misses";
      case Category::SyncComp: return "Sync Comp";
      case Category::SyncMiss: return "Sync Miss";
      case Category::Lock: return "Locks";
      case Category::Reduction: return "Reductions";
      case Category::StartupWait: return "Start-up Wait";
      default: return "?";
    }
}

PhaseStats&
PhaseStats::operator+=(const PhaseStats& o)
{
    for (std::size_t i = 0; i < kNumCategories; ++i)
        cycles[i] += o.cycles[i];
    counts += o.counts;
    charged += o.charged;
    return *this;
}

std::uint64_t
PhaseStats::totalCycles() const
{
    std::uint64_t t = 0;
    for (auto c : cycles)
        t += c;
    return t;
}

void
ProcStats::setPhase(std::size_t i)
{
    if (i >= phases_.size())
        phases_.resize(i + 1);
    cur_ = &phases_[i];
}

PhaseStats
ProcStats::total() const
{
    PhaseStats t;
    for (const auto& p : phases_)
        t += p;
    return t;
}

void
ProcStats::reset()
{
    phases_.assign(1, PhaseStats{});
    cur_ = phases_.data();
}

} // namespace wwt::stats
