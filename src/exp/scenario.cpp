#include "exp/scenario.hpp"

#include <cstdio>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "exp/json.hpp"

namespace mobidist::exp {

namespace {

[[noreturn]] void fail(const std::string& what) { throw std::runtime_error("scenario: " + what); }

double require_number(std::string_view key, const json::Value& value) {
  if (!value.is_number()) fail("field '" + std::string(key) + "' must be a number");
  return value.as_number();
}

std::uint64_t require_u64(std::string_view key, const json::Value& value) {
  require_number(key, value);
  // as_u64 keeps integer literals beyond double's 53-bit mantissa exact
  // (full-range seeds in particular).
  const auto n = value.as_u64();
  if (!n) fail("field '" + std::string(key) + "' must be an integer in [0, 2^64)");
  return *n;
}

std::uint32_t require_u32(std::string_view key, const json::Value& value) {
  const std::uint64_t n = require_u64(key, value);
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    fail("field '" + std::string(key) + "' must be at most 4294967295");
  }
  return static_cast<std::uint32_t>(n);
}

bool require_bool(std::string_view key, const json::Value& value) {
  if (value.is_bool()) return value.as_bool();
  // Sweep axes express everything as numbers or strings; accept 0/1.
  if (value.is_number() && (value.as_number() == 0.0 || value.as_number() == 1.0)) {
    return value.as_number() != 0.0;
  }
  fail("field '" + std::string(key) + "' must be a bool (or 0/1)");
}

std::string require_string(std::string_view key, const json::Value& value) {
  if (!value.is_string()) fail("field '" + std::string(key) + "' must be a string");
  return value.as_string();
}

net::SearchMode parse_search(std::string_view key, const json::Value& value) {
  const auto text = require_string(key, value);
  if (text == "oracle") return net::SearchMode::kOracle;
  if (text == "broadcast") return net::SearchMode::kBroadcast;
  fail("unknown search mode '" + text + "' (oracle|broadcast)");
}

net::InitialPlacement parse_placement(std::string_view key, const json::Value& value) {
  const auto text = require_string(key, value);
  if (text == "round_robin") return net::InitialPlacement::kRoundRobin;
  if (text == "random") return net::InitialPlacement::kRandom;
  if (text == "all_in_cell0") return net::InitialPlacement::kAllInCell0;
  fail("unknown placement '" + text + "' (round_robin|random|all_in_cell0)");
}

/// Pattern names come from mobility::kMovePatternNames — one source of
/// truth shared with the model factory and the generator CLI, so a new
/// model is automatically parseable and enumerated in this error.
mobility::MovePattern parse_pattern(std::string_view key, const json::Value& value) {
  const auto text = require_string(key, value);
  if (const auto pattern = mobility::pattern_from_name(text)) return *pattern;
  std::string valid;
  for (const auto name : mobility::kMovePatternNames) {
    if (!valid.empty()) valid += '|';
    valid += name;
  }
  fail("unknown mobility pattern '" + text + "' (" + valid + ")");
}

const char* search_name(net::SearchMode mode) {
  return mode == net::SearchMode::kOracle ? "oracle" : "broadcast";
}

const char* placement_name(net::InitialPlacement placement) {
  switch (placement) {
    case net::InitialPlacement::kRoundRobin: return "round_robin";
    case net::InitialPlacement::kRandom: return "random";
    case net::InitialPlacement::kAllInCell0: return "all_in_cell0";
  }
  return "unknown";
}

/// Shortest round-trip double rendering for scenario re-serialization;
/// locale-independent and exact, unlike the snprintf "%.6f" it replaces.
std::string real(double value) { return json::format_double(value); }

}  // namespace

double ScenarioSpec::param(std::string_view key, double fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

std::uint64_t ScenarioSpec::param_u64(std::string_view key, std::uint64_t fallback) const {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  const auto n = json::Value(it->second).as_u64();
  if (!n) fail("param '" + std::string(key) + "' must be an integer in [0, 2^64)");
  return *n;
}

void apply_override(ScenarioSpec& spec, std::string_view key, const json::Value& value) {
  if (key == "name") { spec.name = require_string(key, value); return; }
  if (key == "workload") { spec.workload = require_string(key, value); return; }
  if (key == "variant") { spec.variant = require_string(key, value); return; }

  if (key == "topology.num_mss") { spec.net.num_mss = require_u32(key, value); return; }
  if (key == "topology.num_mh") { spec.net.num_mh = require_u32(key, value); return; }
  if (key == "topology.seed") { spec.net.seed = require_u64(key, value); return; }
  if (key == "topology.search") { spec.net.search = parse_search(key, value); return; }
  if (key == "topology.placement") { spec.net.placement = parse_placement(key, value); return; }
  if (key == "topology.charge_search_for_local") {
    spec.net.charge_search_for_local = require_bool(key, value);
    return;
  }
  if (key == "topology.shards") { spec.net.shards = require_u32(key, value); return; }

  auto& lat = spec.net.latency;
  if (key == "latency.wired_min") { lat.wired_min = require_u64(key, value); return; }
  if (key == "latency.wired_max") { lat.wired_max = require_u64(key, value); return; }
  if (key == "latency.wireless_min") { lat.wireless_min = require_u64(key, value); return; }
  if (key == "latency.wireless_max") { lat.wireless_max = require_u64(key, value); return; }
  if (key == "latency.search_min") { lat.search_min = require_u64(key, value); return; }
  if (key == "latency.search_max") { lat.search_max = require_u64(key, value); return; }
  if (key == "latency.broadcast_retry") { lat.broadcast_retry = require_u64(key, value); return; }
  /// "latency.wired" and friends set min == max in one stroke — the
  /// common deterministic-latency case sweeps read better with one axis.
  if (key == "latency.wired") {
    lat.wired_min = lat.wired_max = require_u64(key, value);
    return;
  }
  if (key == "latency.wireless") {
    lat.wireless_min = lat.wireless_max = require_u64(key, value);
    return;
  }
  if (key == "latency.search") {
    lat.search_min = lat.search_max = require_u64(key, value);
    return;
  }

  if (key == "cost.c_fixed") { spec.cost.c_fixed = require_number(key, value); return; }
  if (key == "cost.c_wired_msg") { spec.cost.c_wired_msg = require_number(key, value); return; }
  if (key == "cost.c_wireless") { spec.cost.c_wireless = require_number(key, value); return; }
  if (key == "cost.c_search") { spec.cost.c_search = require_number(key, value); return; }
  if (key == "cost.energy_tx") { spec.cost.energy_tx = require_number(key, value); return; }
  if (key == "cost.energy_rx") { spec.cost.energy_rx = require_number(key, value); return; }

  auto& f = spec.fault;
  if (key == "fault.wireless_loss") { f.wireless_loss = require_number(key, value); return; }
  if (key == "fault.wireless_dup") { f.wireless_dup = require_number(key, value); return; }
  if (key == "fault.wireless_reorder") { f.wireless_reorder = require_number(key, value); return; }
  if (key == "fault.wireless_spike_max") { f.wireless_spike_max = require_u64(key, value); return; }
  if (key == "fault.wired_spike") { f.wired_spike = require_number(key, value); return; }
  if (key == "fault.wired_spike_max") { f.wired_spike_max = require_u64(key, value); return; }
  if (key == "fault.evacuate_on_crash") { f.evacuate_on_crash = require_bool(key, value); return; }
  if (key == "fault.drop_first_wireless") { f.drop_first_wireless = require_u32(key, value); return; }
  if (key == "fault.dup_first_wireless") { f.dup_first_wireless = require_u32(key, value); return; }
  if (key == "fault.rto_base") { f.rto_base = require_u64(key, value); return; }
  if (key == "fault.rto_cap") { f.rto_cap = require_u64(key, value); return; }

  auto& fm = spec.net.formation;
  if (key == "formation.max_packet_msgs") { fm.max_packet_msgs = require_u32(key, value); return; }
  if (key == "formation.max_packet_bytes") { fm.max_packet_bytes = require_u32(key, value); return; }
  if (key == "formation.flush_deadline") { fm.flush_deadline = require_u64(key, value); return; }

  auto& m = spec.mob;
  if (key == "mobility.enabled") { spec.mobility = require_bool(key, value); return; }
  if (key == "mobility.pattern") { m.pattern = parse_pattern(key, value); return; }
  if (key == "mobility.mean_pause") { m.mean_pause = require_number(key, value); return; }
  if (key == "mobility.mean_transit") { m.mean_transit = require_number(key, value); return; }
  if (key == "mobility.zipf_s") { m.zipf_s = require_number(key, value); return; }
  if (key == "mobility.max_moves_per_host") { m.max_moves_per_host = require_u64(key, value); return; }
  if (key == "mobility.stop_at") { m.stop_at = require_u64(key, value); return; }
  if (key == "mobility.disconnect_prob") { m.disconnect_prob = require_number(key, value); return; }
  if (key == "mobility.mean_disconnect") { m.mean_disconnect = require_number(key, value); return; }
  if (key == "mobility.regions") { m.regions = require_u32(key, value); return; }
  if (key == "mobility.grid_width") { m.grid_width = require_u32(key, value); return; }
  if (key == "mobility.phase_period") { m.phase_period = require_u64(key, value); return; }
  if (key == "mobility.day_fraction") { m.day_fraction = require_number(key, value); return; }
  if (key == "mobility.crowd_fraction") { m.crowd_fraction = require_number(key, value); return; }
  if (key == "mobility.crowd_period") { m.crowd_period = require_u64(key, value); return; }
  if (key == "mobility.crowd_dwell") { m.crowd_dwell = require_u64(key, value); return; }

  if (key.substr(0, 7) == "params.") {
    const auto name = key.substr(7);
    if (name.empty()) fail("empty param name");
    spec.params.insert_or_assign(std::string(name), require_number(key, value));
    return;
  }

  fail("unknown field '" + std::string(key) + "'");
}

namespace {

fault::MssCrash crash_from_json(const json::Value& item) {
  if (!item.is_object()) fail("fault.crashes entries must be objects");
  fault::MssCrash crash;
  for (const auto& [key, value] : item.as_object()) {
    if (key == "mss") crash.mss = require_u32("fault.crashes.mss", value);
    else if (key == "at") crash.at = require_u64("fault.crashes.at", value);
    else if (key == "down_for") crash.down_for = require_u64("fault.crashes.down_for", value);
    else fail("unknown field 'fault.crashes." + key + "'");
  }
  return crash;
}

fault::CellPartition partition_from_json(const json::Value& item) {
  if (!item.is_object()) fail("fault.partitions entries must be objects");
  fault::CellPartition part;
  for (const auto& [key, value] : item.as_object()) {
    if (key == "a") part.a = require_u32("fault.partitions.a", value);
    else if (key == "b") part.b = require_u32("fault.partitions.b", value);
    else if (key == "from") part.from = require_u64("fault.partitions.from", value);
    else if (key == "until") part.until = require_u64("fault.partitions.until", value);
    else fail("unknown field 'fault.partitions." + key + "'");
  }
  return part;
}

/// Flatten one section object into dotted apply_override calls, special-
/// casing the structured fault arrays.
void apply_section(ScenarioSpec& spec, const std::string& prefix, const json::Value& section) {
  if (!section.is_object()) fail("'" + prefix + "' must be an object");
  for (const auto& [key, value] : section.as_object()) {
    const std::string path = prefix + "." + key;
    if (path == "fault.crashes") {
      if (!value.is_array()) fail("fault.crashes must be an array");
      for (const auto& item : value.as_array()) spec.fault.crashes.push_back(crash_from_json(item));
      continue;
    }
    if (path == "fault.partitions") {
      if (!value.is_array()) fail("fault.partitions must be an array");
      for (const auto& item : value.as_array()) {
        spec.fault.partitions.push_back(partition_from_json(item));
      }
      continue;
    }
    apply_override(spec, path, value);
  }
}

}  // namespace

ScenarioSpec scenario_from_json(const json::Value& doc) {
  if (!doc.is_object()) fail("document must be a JSON object");
  ScenarioSpec spec;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "sweep") continue;  // consumed by sweep.hpp
    if (key == "name" || key == "workload" || key == "variant") {
      apply_override(spec, key, value);
      continue;
    }
    if (key == "topology" || key == "latency" || key == "cost" || key == "formation" ||
        key == "fault" || key == "mobility" || key == "params") {
      apply_section(spec, key, value);
      continue;
    }
    fail("unknown top-level field '" + key + "'");
  }
  return spec;
}

ScenarioSpec parse_scenario(std::string_view text) {
  const auto doc = json::parse(text);
  if (!doc) fail("malformed JSON");
  return scenario_from_json(*doc);
}

std::string to_json(const ScenarioSpec& spec) {
  std::ostringstream os;
  const auto& lat = spec.net.latency;
  const auto& f = spec.fault;
  os << "{\"name\":" << json::quote(spec.name) << ",\"workload\":"
     << json::quote(spec.workload) << ",\"variant\":" << json::quote(spec.variant)
     << ",\"topology\":{\"num_mss\":"
     << spec.net.num_mss << ",\"num_mh\":" << spec.net.num_mh << ",\"search\":\""
     << search_name(spec.net.search) << "\",\"placement\":\""
     << placement_name(spec.net.placement) << "\",\"charge_search_for_local\":"
     << (spec.net.charge_search_for_local ? "true" : "false");
  // Emitted only when set so pre-sharding artifact bodies stay
  // byte-identical.
  if (spec.net.shards != 0) os << ",\"shards\":" << spec.net.shards;
  os << "},\"latency\":{\"wired_min\":" << lat.wired_min << ",\"wired_max\":" << lat.wired_max
     << ",\"wireless_min\":" << lat.wireless_min << ",\"wireless_max\":" << lat.wireless_max
     << ",\"search_min\":" << lat.search_min << ",\"search_max\":" << lat.search_max
     << ",\"broadcast_retry\":" << lat.broadcast_retry
     << "},\"cost\":{\"c_fixed\":" << real(spec.cost.c_fixed)
     << ",\"c_wired_msg\":" << real(spec.cost.c_wired_msg)
     << ",\"c_wireless\":" << real(spec.cost.c_wireless)
     << ",\"c_search\":" << real(spec.cost.c_search)
     << ",\"energy_tx\":" << real(spec.cost.energy_tx)
     << ",\"energy_rx\":" << real(spec.cost.energy_rx) << "}";
  if (!spec.net.formation.passthrough()) {
    os << ",\"formation\":{\"flush_deadline\":" << spec.net.formation.flush_deadline
       << ",\"max_packet_bytes\":" << spec.net.formation.max_packet_bytes
       << ",\"max_packet_msgs\":" << spec.net.formation.max_packet_msgs << '}';
  }
  if (spec.has_faults()) {
    // Fields beyond the original set are emitted only when non-default,
    // keeping existing scenario bodies byte-identical.
    const fault::FaultProfile defaults;
    os << ",\"fault\":{\"wireless_loss\":" << real(f.wireless_loss)
       << ",\"wireless_dup\":" << real(f.wireless_dup)
       << ",\"wireless_reorder\":" << real(f.wireless_reorder);
    if (f.wireless_spike_max != defaults.wireless_spike_max) {
      os << ",\"wireless_spike_max\":" << f.wireless_spike_max;
    }
    os << ",\"wired_spike\":" << real(f.wired_spike);
    if (f.wired_spike_max != defaults.wired_spike_max) {
      os << ",\"wired_spike_max\":" << f.wired_spike_max;
    }
    if (f.evacuate_on_crash != defaults.evacuate_on_crash) {
      os << ",\"evacuate_on_crash\":" << (f.evacuate_on_crash ? "true" : "false");
    }
    if (f.drop_first_wireless != defaults.drop_first_wireless) {
      os << ",\"drop_first_wireless\":" << f.drop_first_wireless;
    }
    if (f.dup_first_wireless != defaults.dup_first_wireless) {
      os << ",\"dup_first_wireless\":" << f.dup_first_wireless;
    }
    if (f.rto_base != defaults.rto_base) os << ",\"rto_base\":" << f.rto_base;
    if (f.rto_cap != defaults.rto_cap) os << ",\"rto_cap\":" << f.rto_cap;
    os << ",\"crashes\":[";
    for (std::size_t i = 0; i < f.crashes.size(); ++i) {
      if (i != 0) os << ',';
      os << "{\"mss\":" << f.crashes[i].mss << ",\"at\":" << f.crashes[i].at
         << ",\"down_for\":" << f.crashes[i].down_for << '}';
    }
    os << "],\"partitions\":[";
    for (std::size_t i = 0; i < f.partitions.size(); ++i) {
      if (i != 0) os << ',';
      os << "{\"a\":" << f.partitions[i].a << ",\"b\":" << f.partitions[i].b
         << ",\"from\":" << f.partitions[i].from << ",\"until\":" << f.partitions[i].until
         << '}';
    }
    os << "]}";
  }
  {
    // Fields beyond the original trio are emitted only when non-default,
    // keeping pre-library scenario bodies (and golden artifacts)
    // byte-identical. The block is written whenever it says anything: a
    // disabled model still drives group_mobility's and multicast's
    // members.
    const mobility::MobilityConfig defaults;
    const auto& mob = spec.mob;
    std::ostringstream extra;
    if (mob.zipf_s != defaults.zipf_s) extra << ",\"zipf_s\":" << real(mob.zipf_s);
    if (mob.max_moves_per_host != defaults.max_moves_per_host) {
      extra << ",\"max_moves_per_host\":" << mob.max_moves_per_host;
    }
    if (mob.stop_at != defaults.stop_at) extra << ",\"stop_at\":" << mob.stop_at;
    if (mob.disconnect_prob != defaults.disconnect_prob) {
      extra << ",\"disconnect_prob\":" << real(mob.disconnect_prob);
    }
    if (mob.mean_disconnect != defaults.mean_disconnect) {
      extra << ",\"mean_disconnect\":" << real(mob.mean_disconnect);
    }
    if (mob.regions != defaults.regions) extra << ",\"regions\":" << mob.regions;
    if (mob.grid_width != defaults.grid_width) {
      extra << ",\"grid_width\":" << mob.grid_width;
    }
    if (mob.phase_period != defaults.phase_period) {
      extra << ",\"phase_period\":" << mob.phase_period;
    }
    if (mob.day_fraction != defaults.day_fraction) {
      extra << ",\"day_fraction\":" << real(mob.day_fraction);
    }
    if (mob.crowd_fraction != defaults.crowd_fraction) {
      extra << ",\"crowd_fraction\":" << real(mob.crowd_fraction);
    }
    if (mob.crowd_period != defaults.crowd_period) {
      extra << ",\"crowd_period\":" << mob.crowd_period;
    }
    if (mob.crowd_dwell != defaults.crowd_dwell) {
      extra << ",\"crowd_dwell\":" << mob.crowd_dwell;
    }
    const auto rest = extra.str();
    const bool trio_default = mob.pattern == defaults.pattern &&
                              mob.mean_pause == defaults.mean_pause &&
                              mob.mean_transit == defaults.mean_transit;
    if (spec.mobility || !trio_default || !rest.empty()) {
      os << ",\"mobility\":{\"enabled\":" << (spec.mobility ? "true" : "false")
         << ",\"pattern\":\"" << pattern_name(mob.pattern)
         << "\",\"mean_pause\":" << real(mob.mean_pause)
         << ",\"mean_transit\":" << real(mob.mean_transit) << rest << '}';
    }
  }
  os << ",\"params\":{";
  bool first = true;
  for (const auto& [key, value] : spec.params) {
    if (!first) os << ',';
    first = false;
    os << json::quote(key) << ':' << real(value);
  }
  os << "}}";
  return os.str();
}

}  // namespace mobidist::exp
