// A reference clock for wall times measured on a host whose CPU clock drifts.
//
// On shared hosts the core clock of a single thread moves by up to 1.4x over
// tens of seconds (CPU time tracks wall time; steal stays near zero), so raw
// wall times of the same code spread by 20-40% between runs.  Each timed
// call is followed by a short latency-bound probe; scaling the call's wall
// time by kReferenceProbeMs / probe time expresses it at one fixed clock.
// The probe lives in its own target, compiled without the library's flags,
// so no change to the code under test can change it.
#pragma once

namespace stepbench {

// Probe time (ms) that defines the reference clock: the probe's chain costs
// 8 cycles per iteration on current x86 server cores (4-cycle multiply, then
// 4-cycle add), so 4 ms is about a 3 GHz core clock.
inline constexpr double kReferenceProbeMs = 4.0;

// Wall time (ms) of a fixed dependent floating-point chain: 1.5e6 multiplies
// each followed by an add, whose latency sets the time, so it measures the
// core clock right now.
double clock_probe_ms();

// Factor that rescales a wall time measured just before to the reference clock.
inline double clock_scale() { return kReferenceProbeMs / clock_probe_ms(); }

}  // namespace stepbench
