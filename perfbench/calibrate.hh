/**
 * @file
 * Host-speed calibration for the untraced benchmark run.
 *
 * On a shared host the simulator's speed drifts by up to 1.5x over
 * minutes, with other tenants' load, while plain integer loops and
 * pointer chases barely move. A small fixed discrete-event kernel
 * (calibrate.cc) drifts with the simulator: a heap-ordered event queue
 * whose events each allocate a closure and update a 16 MiB tag table.
 * Timing it next to every repetition and scaling the repetition's
 * times by (reference time / measured time) turns host seconds into
 * seconds at the reference host's speed. The kernel is part of the
 * benchmark, never of the simulator, so a change to the simulator
 * cannot move it.
 */

#ifndef BMC_PERFBENCH_CALIBRATE_HH
#define BMC_PERFBENCH_CALIBRATE_HH

namespace perfbench
{

/** Median seconds of calibrate() on the reference host (see README). */
constexpr double kCalibrationRefS = 0.1;

/** Run the fixed calibration kernel once; host seconds it took. */
double calibrate();

} // namespace perfbench

#endif // BMC_PERFBENCH_CALIBRATE_HH
