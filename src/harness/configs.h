// Named run configurations: one source of truth for "--config=<name>".
//
// The table started life inside tcc_fuzz; now the sim, the fuzzer and the
// sweep runner all resolve the same names to the same ClusterParams
// mutations, and --list-configs prints the same table everywhere.
// Regression ("chaos") configs re-enable one historical bug via its chaos
// knob; they are excluded from default fuzz sweeps (they are SUPPOSED to
// fail) and run only when named explicitly.
#pragma once

#include <cstdio>
#include <string_view>
#include <vector>

#include "harness/cluster.h"

namespace faastcc::harness {

struct NamedConfig {
  const char* name;
  const char* what;
  bool chaos;  // regression config: re-enables a historical bug
  void (*apply)(ClusterParams&);
};

// All registered configs, in stable listing order.
const std::vector<NamedConfig>& all_configs();

// nullptr when no config has that name.
const NamedConfig* find_config(std::string_view name);

// `--list-configs` output, identical across binaries.
void list_configs(std::FILE* out);

// The fuzzer's seed-rotated workload shapes (short chains / deep chains /
// static hot-key transactions), shared so a parallel sweep reproduces the
// serial fuzzer's runs exactly.
void apply_fuzz_shape(ClusterParams& p, uint64_t seed);

}  // namespace faastcc::harness
