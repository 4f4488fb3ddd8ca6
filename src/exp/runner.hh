#pragma once

/**
 * @file
 * The crash-isolated campaign runner.
 *
 * Each scenario executes in its own child process — fork + exec of a
 * self-invoking `wwtcmp_campaign --run-one` command — so a scenario
 * that corrupts memory, trips an AuditError, or dies on a signal
 * takes down one run, not the campaign. The parent is a work-queue
 * scheduler: up to `jobs` children run concurrently, each watched
 * against its scenario's wall-clock timeout; children that die on a
 * signal or time out are retried with linear backoff up to the
 * scenario's retry budget; deterministic failures (a child that
 * writes a failed record and exits) are never retried, because
 * re-running a deterministic simulator reproduces the failure.
 *
 * The parent stays single-threaded: it spawns with fork/exec, polls
 * with waitpid(WNOHANG), and sleeps between sweeps, so scheduling
 * needs no locks and the results file has exactly one writer.
 *
 * The runner does not carry records. A child publishes its record
 * through the store (Store::publishRecord); the caller takes it back
 * in the done callback. The `reaped` hook runs after every waitpid,
 * retried attempts included, so the caller can discard what a dead
 * attempt left half-written.
 *
 * Chaos hook: `chaosKillId` names one scenario whose first attempt is
 * SIGKILLed right after the spawn — CI uses it to prove the retry
 * path stays alive (docs/campaigns.md).
 */

#include <functional>
#include <string>
#include <vector>

#include "exp/scenario.hh"

namespace wwt::exp
{

/** Scheduler policy. */
struct RunnerOptions {
    std::size_t jobs = 1;       ///< concurrent child processes
    double backoffSec = 0.5;    ///< retry delay = backoff * attempt
    std::string chaosKillId;    ///< SIGKILL this scenario's 1st attempt
    /** Invoked after each child is reaped, with its attempt number. */
    std::function<void(const Scenario&, int attempt)> reaped;
};

/** What happened to one scenario's child process(es). */
struct ChildOutcome {
    enum class Kind : std::uint8_t {
        Exited,  ///< child exited; `exitCode` is valid
        Signal,  ///< child died on `signal`, retries exhausted
        Timeout, ///< wall-clock budget exceeded, retries exhausted
        SpawnError, ///< fork/exec itself failed
    };
    Kind kind = Kind::Exited;
    int exitCode = 0;
    int signal = 0;
    int attempts = 1;
    std::string detail; ///< human-readable diagnostic
};

/** What the scheduler did, summed over the whole run. */
struct RunnerStats {
    std::size_t spawns = 0; ///< children actually forked
};

/**
 * Runs scenarios concurrently in crash-isolated child processes.
 *
 * The runner is execution-mechanism only: callers provide the child
 * command line per scenario and consume outcomes via a callback, so
 * the scheduler stays independent of the store and the CLI.
 */
class Runner
{
  public:
    /** Child command line for @p s and attempt number (1-based);
     *  argv[0] is the executable. */
    using CommandFn = std::function<std::vector<std::string>(
        const Scenario&, int attempt)>;
    /** Invoked from the scheduling loop once per finished scenario. */
    using DoneFn =
        std::function<void(const Scenario&, const ChildOutcome&)>;

    Runner(RunnerOptions opts, CommandFn command)
        : opts_(std::move(opts)), command_(std::move(command))
    {
    }

    /**
     * Execute every scenario to a terminal outcome. @p log_path maps
     * a scenario to the file receiving its child's stdout+stderr
     * (truncated per attempt).
     */
    RunnerStats run(const std::vector<Scenario>& scenarios,
                    DoneFn on_done,
                    std::function<std::string(const Scenario&)>
                        log_path);

  private:
    RunnerOptions opts_;
    CommandFn command_;
};

} // namespace wwt::exp
