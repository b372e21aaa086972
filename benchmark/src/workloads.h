/**
 * @file
 * The four varanbench workloads. Each runs its phases for the time
 * Params::seconds allots, fills the Report, and tears every process and
 * thread it started down before returning — on a failed check or an
 * expired phase deadline too.
 */

#ifndef VARANBENCH_WORKLOADS_H
#define VARANBENCH_WORKLOADS_H

#include "bench.h"

namespace vb {

/** vstore (Redis archetype), 1 leader + 2 followers, 2 connections. */
void runKvMixed(const Params &params, Report &report);

/** vcache (Memcached archetype), 2 workers, 1 leader + 1 follower,
 *  4 connections. */
void runCacheMt(const Params &params, Report &report);

/** In-engine loop of seeded system calls, 1 leader + 2 followers. */
void runSyscallStorm(const Params &params, Report &report);

/** Synthetic leader -> wire::Shipper -> socketpair -> wire::Receiver
 *  -> remote drain thread. */
void runWireStream(const Params &params, Report &report);

/** Set-up repetitions per run; set-up time is their median. */
inline constexpr int kSetupReps = 5;

/** Untimed warm-up before a measured phase. */
inline constexpr double kWarmupSec = 1.0;

/** Server and wire capacity phases run on this many fresh instances.
 *  Where their threads land decides much of their speed, and a fresh
 *  instance lands afresh, so a run's median spans several placements. */
inline constexpr int kRounds = 4;

/** Untimed warm-up of each instance in a round. */
inline constexpr double kRoundWarmupSec = 0.5;

/** Grace after a phase's planned end for outstanding replies; what is
 *  still unanswered then counts as failed. */
inline constexpr double kGraceSec = 3.0;

} // namespace vb

#endif // VARANBENCH_WORKLOADS_H
