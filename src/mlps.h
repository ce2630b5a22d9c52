/**
 * @file
 * Umbrella header: the whole public API in one include.
 *
 * Fine-grained headers remain the preferred way to consume the
 * library from other libraries; this exists for applications,
 * notebooks-style experiments and quick tools.
 */

#ifndef MLPSIM_MLPS_H
#define MLPSIM_MLPS_H

// Simulation kernel
#include "sim/counters.h"
#include "sim/event_queue.h"
#include "sim/logger.h"
#include "sim/rng.h"
#include "sim/time.h"

// Hardware models
#include "hw/cpu.h"
#include "hw/gpu.h"
#include "hw/kernel_timing.h"
#include "hw/precision.h"

// Interconnect
#include "net/allreduce.h"
#include "net/link.h"
#include "net/topology.h"
#include "net/transfer.h"

// Machines
#include "sys/machines.h"
#include "sys/system_config.h"

// Workloads
#include "wl/convergence.h"
#include "wl/dataset.h"
#include "wl/host_pipeline.h"
#include "wl/op.h"
#include "wl/op_graph.h"
#include "wl/workload.h"

// Model zoo
#include "models/builders.h"
#include "models/zoo.h"

// Training engine
#include "train/energy.h"
#include "train/pipeline.h"
#include "train/precision_policy.h"
#include "train/trainer.h"
#include "train/training_job.h"

// Measurement
#include "prof/csv.h"
#include "prof/device_monitor.h"
#include "prof/kernel_profiler.h"
#include "prof/metric_set.h"
#include "prof/sys_monitor.h"
#include "prof/trace.h"

// Analysis
#include "stats/cluster.h"
#include "stats/descriptive.h"
#include "stats/eigen.h"
#include "stats/matrix.h"
#include "stats/pca.h"
#include "stats/roofline.h"

// Scheduling
#include "sched/gantt.h"
#include "sched/job_spec.h"
#include "sched/naive.h"
#include "sched/online.h"
#include "sched/optimal.h"
#include "sched/schedule.h"

// Top-level API
#include "core/benchmark.h"
#include "core/characterize.h"
#include "core/registry.h"
#include "core/report.h"
#include "core/suite.h"

#endif // MLPSIM_MLPS_H
