#include "exp/runner.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace wwt::exp
{

namespace
{

using Clock = std::chrono::steady_clock;

/** One scenario's place in the schedule. */
struct Slot {
    const Scenario* scenario = nullptr;
    int attempt = 0;           ///< attempts started so far
    pid_t pid = -1;            ///< -1 = not currently running
    Clock::time_point deadline;    ///< kill after this point
    Clock::time_point notBefore;   ///< backoff: don't start earlier
    bool done = false;
    ChildOutcome outcome;
};

/**
 * fork + exec @p argv with stdout/stderr redirected to @p log_path.
 * @return the child pid, or -1 on failure.
 */
pid_t
spawn(const std::vector<std::string>& argv, const std::string& log_path)
{
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv)
        cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);

    pid_t pid = ::fork();
    if (pid != 0)
        return pid; // parent (or fork failure)

    // Child: only async-signal-safe calls from here to exec.
    int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                    0666);
    if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        if (fd > STDERR_FILENO)
            ::close(fd);
    }
    ::execv(cargv[0], cargv.data());
    // exec failed: report on the (redirected) stderr and die with a
    // status the parent maps to SpawnError.
    const char msg[] = "exec failed\n";
    ssize_t ignored = ::write(STDERR_FILENO, msg, sizeof(msg) - 1);
    (void)ignored;
    ::_exit(127);
}

} // namespace

RunnerStats
Runner::run(const std::vector<Scenario>& scenarios, DoneFn on_done,
            std::function<std::string(const Scenario&)> log_path)
{
    std::vector<Slot> slots(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        slots[i].scenario = &scenarios[i];
        slots[i].notBefore = Clock::now();
    }

    std::size_t jobs = opts_.jobs ? opts_.jobs : 1;
    std::size_t running = 0;
    std::size_t finished = 0;
    RunnerStats stats;

    // Bookkeeping after a waitpid that collected s's child.
    auto reaped = [&](Slot& s) {
        s.pid = -1;
        --running;
        if (opts_.reaped)
            opts_.reaped(*s.scenario, s.attempt);
    };

    auto finish = [&](Slot& s, ChildOutcome::Kind kind, int code,
                      int sig, std::string detail) {
        s.done = true;
        s.outcome.kind = kind;
        s.outcome.exitCode = code;
        s.outcome.signal = sig;
        s.outcome.attempts = s.attempt;
        s.outcome.detail = std::move(detail);
        ++finished;
        on_done(*s.scenario, s.outcome);
    };

    while (finished < slots.size()) {
        // Start work while job slots are free.
        for (Slot& s : slots) {
            if (running >= jobs)
                break;
            if (s.done || s.pid != -1 || Clock::now() < s.notBefore)
                continue;
            ++s.attempt;
            pid_t pid = spawn(command_(*s.scenario, s.attempt),
                              log_path(*s.scenario));
            if (pid < 0) {
                finish(s, ChildOutcome::Kind::SpawnError, 0, 0,
                       std::string("fork failed: ") +
                           std::strerror(errno));
                continue;
            }
            ++stats.spawns;
            s.pid = pid;
            s.deadline =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        s.scenario->timeoutSec));
            ++running;
            if (s.attempt == 1 &&
                s.scenario->id == opts_.chaosKillId) {
                // Chaos: kill the first attempt outright, so the
                // retry path is exercised on every CI run.
                ::kill(pid, SIGKILL);
            }
        }

        // Reap and time out running children.
        bool progressed = false;
        for (Slot& s : slots) {
            if (s.pid == -1)
                continue;
            int status = 0;
            pid_t r = ::waitpid(s.pid, &status, WNOHANG);
            if (r == 0) {
                if (Clock::now() < s.deadline)
                    continue;
                // Budget exhausted: kill and reap synchronously.
                ::kill(s.pid, SIGKILL);
                ::waitpid(s.pid, &status, 0);
                reaped(s);
                progressed = true;
                if (s.attempt <= s.scenario->retries) {
                    s.notBefore =
                        Clock::now() +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                opts_.backoffSec * s.attempt));
                } else {
                    finish(s, ChildOutcome::Kind::Timeout, 0, 0,
                           "exceeded " +
                               std::to_string(s.scenario->timeoutSec) +
                               "s wall-clock budget " +
                               std::to_string(s.attempt) + " time(s)");
                }
                continue;
            }
            if (r < 0) { // should not happen; treat as a crash
                reaped(s);
                progressed = true;
                finish(s, ChildOutcome::Kind::SpawnError, 0, 0,
                       std::string("waitpid failed: ") +
                           std::strerror(errno));
                continue;
            }
            reaped(s);
            progressed = true;
            if (WIFEXITED(status)) {
                int code = WEXITSTATUS(status);
                if (code == 127) {
                    finish(s, ChildOutcome::Kind::SpawnError, code, 0,
                           "exec failed (see the scenario log)");
                } else {
                    finish(s, ChildOutcome::Kind::Exited, code, 0, "");
                }
                continue;
            }
            int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
            if (s.attempt <= s.scenario->retries) {
                s.notBefore =
                    Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            opts_.backoffSec * s.attempt));
            } else {
                finish(s, ChildOutcome::Kind::Signal, 0, sig,
                       "child died on signal " + std::to_string(sig) +
                           " after " + std::to_string(s.attempt) +
                           " attempt(s)");
            }
        }

        if (!progressed && finished < slots.size())
            std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }
    return stats;
}

} // namespace wwt::exp
