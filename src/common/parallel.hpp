// Host-side parallel loops.
//
// The functional simulator executes independent thread blocks across host
// cores. These loops run on the persistent work-stealing ssam::ThreadPool
// (common/thread_pool.hpp) instead of per-launch OpenMP regions: no
// fork/join per kernel launch, per-worker state survives across launches,
// and non-OpenMP builds stay parallel (std::thread +
// ssam::hardware_concurrency()). `parallel_for` and
// `parallel_for_pooled` are defined in thread_pool.hpp; this header remains
// the conventional include for call sites that only need the loops.
#pragma once

#include "common/thread_pool.hpp"
