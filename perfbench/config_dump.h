// Effective-configuration dumps: every field of the config structs a
// workload actually ran with, read from the structs themselves, so a result
// can never carry a label that disagrees with the code that produced it.
#pragma once

#include "accel/hw_config.h"
#include "fault/fault_plan.h"
#include "report.h"
#include "serve/serve_engine.h"
#include "workload/arrivals.h"
#include "workload/zoo.h"

namespace perfbench {

void dump(JsonWriter& json, const char* key,
          const topick::serve::ServeConfig& c);
void dump(JsonWriter& json, const char* key, const topick::fault::FaultPlan& p);
void dump(JsonWriter& json, const char* key,
          const topick::wl::ArrivalParams& p);
void dump(JsonWriter& json, const char* key,
          const topick::wl::PriorityMixParams& p);
void dump(JsonWriter& json, const char* key,
          const topick::accel::AccelConfig& c);
void dump(JsonWriter& json, const char* key, const topick::wl::ZooEntry& e);

}  // namespace perfbench
