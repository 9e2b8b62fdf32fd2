// perfbench -- the four workloads. See perfbench/README.md for what each
// workload and metric means.
#pragma once

#include <string>

#include "common.h"

namespace portal {
class Dataset;
}

namespace perfbench {

/// Run one workload and fill `report`. A wrong answer, a broken self-check
/// or an invalid load schedule ends the process through fail().
void run_batch(const Args& args, Report& report);
void run_serve(const Args& args, Report& report);

/// ns per reference point of the batch:: squared-distance tile kernel on
/// the data's own kd-tree leaves (each leaf's points against the next leaf),
/// plus the fused Gaussian sum when `gaussian_inv` > 0. Runs about `seconds`.
double tile_ns_per_pair(const portal::Dataset& data, double gaussian_inv,
                        double seconds);

bool is_batch_workload(const std::string& name);
bool is_serve_workload(const std::string& name);

}  // namespace perfbench
