#include "svc/lease.hh"

#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace wwt::svc
{

LeaseDir::LeaseDir(std::string dir, std::string owner,
                   double timeout_sec)
    : dir_(std::move(dir)), owner_(std::move(owner)),
      timeoutSec_(timeout_sec)
{
}

double
LeaseDir::now()
{
    struct timespec ts{};
    ::clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string
LeaseDir::path(const std::string& id) const
{
    return dir_ + "/" + id + ".lease";
}

LeaseDir::Info
LeaseDir::read(const std::string& id) const
{
    Info info;
    std::ifstream in(path(id));
    if (!in)
        return info;
    info.exists = true;
    in >> info.owner >> info.heartbeat;
    // Workers only publish complete lines (temp file + link/rename),
    // so a torn or empty lease comes from outside the protocol; it
    // reads as heartbeat 0 => maximally stale => claimable.
    return info;
}

bool
LeaseDir::stale(const Info& info) const
{
    return !info.exists || now() - info.heartbeat > timeoutSec_;
}

std::string
LeaseDir::writeTemp(const std::string& id) const
{
    // Temp name carries the owner so two claimants never share a
    // temp file.
    std::string tmp = dir_ + "/." + owner_ + "." + id + ".tmp";
    std::ofstream os(tmp, std::ios::trunc);
    if (!os)
        return "";
    char line[256];
    std::snprintf(line, sizeof(line), "%s %.6f\n", owner_.c_str(),
                  now());
    os << line;
    if (!os.flush()) {
        std::remove(tmp.c_str());
        return "";
    }
    return tmp;
}

bool
LeaseDir::writeOwned(const std::string& id) const
{
    // rename() replaces atomically, so readers always see a complete
    // lease line.
    std::string tmp = writeTemp(id);
    if (tmp.empty())
        return false;
    if (std::rename(tmp.c_str(), path(id).c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
LeaseDir::acquire(const std::string& id)
{
    Info info = read(id);
    if (info.exists && info.owner == owner_) {
        // Our own lease (a restart, or a re-acquire within a run):
        // refresh the heartbeat and keep going.
        held_.insert(id);
        writeOwned(id);
        return true;
    }
    if (info.exists && !stale(info))
        return false; // live claim by another worker

    if (!info.exists) {
        // Common path: let the kernel arbitrate the first claim.
        // link(2) fails if the lease exists, and the lease appears
        // with its line already written. (Creating it empty and then
        // writing would let a reader in between see heartbeat 0, call
        // the claim stale, and steal it.)
        std::string tmp = writeTemp(id);
        if (tmp.empty())
            return false;
        int rc = ::link(tmp.c_str(), path(id).c_str());
        std::remove(tmp.c_str());
        if (rc != 0)
            return false; // someone else just created it
        held_.insert(id);
        return true;
    }

    // Stale lease: steal by atomic replacement, then verify we won
    // (another stealer's rename may have landed after ours).
    if (!writeOwned(id))
        return false;
    Info after = read(id);
    if (!after.exists || after.owner != owner_)
        return false;
    held_.insert(id);
    return true;
}

void
LeaseDir::heartbeat()
{
    for (const std::string& id : held_)
        writeOwned(id);
}

void
LeaseDir::release(const std::string& id)
{
    std::remove(path(id).c_str());
    held_.erase(id);
}

} // namespace wwt::svc
