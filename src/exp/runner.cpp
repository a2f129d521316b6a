#include "exp/runner.hpp"

#include <atomic>
#include <cctype>
#include <chrono>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/report.hpp"
#include "group/always_inform.hpp"
#include "group/group.hpp"
#include "group/location_view.hpp"
#include "group/pure_search.hpp"
#include "mobility/mobility_model.hpp"
#include "multicast/multicast.hpp"
#include "mutex/l1.hpp"
#include "mutex/l2.hpp"
#include "mutex/monitor.hpp"
#include "mutex/options.hpp"
#include "mutex/path_reversal.hpp"
#include "mutex/r1.hpp"
#include "mutex/r2.hpp"
#include "net/agent.hpp"
#include "obs/checkers.hpp"
#include "obs/events.hpp"
#include "proxy/proxy.hpp"
#include "proxy/static_algorithm.hpp"
#include "workload/workload.hpp"

namespace mobidist::exp {

namespace {

using net::MhId;
using net::MssId;

[[noreturn]] void bad_workload(const ScenarioSpec& spec, const std::string& what) {
  throw std::runtime_error("workload '" + spec.workload + "': " + what);
}

/// Unknown-variant failure that enumerates the names the workload DOES
/// accept, so a typo in scenario JSON is a one-glance fix.
[[noreturn]] void bad_variant(const ScenarioSpec& spec,
                              std::span<const std::string_view> valid) {
  std::string what = "unknown variant '" + spec.variant + "' (valid: ";
  for (std::size_t i = 0; i < valid.size(); ++i) {
    if (i != 0) what += ", ";
    what += valid[i];
  }
  what += ")";
  bad_workload(spec, what);
}

void require_topology(const ScenarioSpec& spec, std::uint32_t min_mss, std::uint32_t min_mh) {
  if (spec.net.num_mss < min_mss || spec.net.num_mh < min_mh) {
    bad_workload(spec, "needs at least " + std::to_string(min_mss) + " MSSs and " +
                           std::to_string(min_mh) + " MHs");
  }
}

/// Chaos-style scripted moves shared by the mutex/ring workloads: move i
/// fires at 60 + 80*i, relocating host (2 + 2*i) mod N one cell to the
/// right, guarded so a host that is mid-transit (or evacuating a crashed
/// cell) simply skips its turn.
void schedule_chaos_moves(ScenarioContext& ctx) {
  const auto count = ctx.spec().param_u64("chaos_moves", 0);
  auto& net = ctx.net();
  const std::uint32_t n = net.num_mh();
  const std::uint32_t m = net.num_mss();
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto host = static_cast<MhId>((2 + 2 * i) % n);
    const auto target = static_cast<MssId>((net::index(host) + 1) % m);
    net.sched().schedule_at(60 + 80 * i, [&net, host, target] {
      if (net.mh(host).connected()) net.mh(host).move_to(target, 15);
    });
  }
}

void monitor_metrics(ScenarioContext& ctx, mutex::CsMonitor& monitor) {
  auto* mon = &monitor;
  ctx.metric("violations", [mon] { return static_cast<double>(mon->violations()); });
  ctx.metric("grants", [mon] { return static_cast<double>(mon->grants()); });
}

/// Expose a mobility driver's move counters and per-region
/// significant-move fraction f in the artifact (as workload.mob.*) —
/// the empirical counterpart of the paper's §4 f parameter, reported
/// per departure region so skewed models are visible in the sweep.
void mobility_metrics(ScenarioContext& ctx, const mobility::MobilityDriver& driver) {
  const auto* d = &driver;
  ctx.metric("mob.moves", [d] { return static_cast<double>(d->moves()); });
  ctx.metric("mob.disconnects", [d] { return static_cast<double>(d->disconnects()); });
  ctx.metric("mob.f", [d] { return d->f_overall(); });
  for (std::uint32_t r = 0; r < driver.regions(); ++r) {
    ctx.metric("mob.f_region_" + std::to_string(r), [d, r] { return d->f_region(r); });
    ctx.metric("mob.moves_region_" + std::to_string(r),
               [d, r] { return static_cast<double>(d->moves_in_region(r)); });
  }
}

// --- mutex: L1 / L2 / ring family / pathrev (benches e1, e2, e7, e10) ------

void build_ring(ScenarioContext& ctx);

void build_mutex(ScenarioContext& ctx) {
  const auto& spec = ctx.spec();
  auto& net = ctx.net();
  const std::uint32_t n = net.num_mh();

  // The ring family keeps its own fixtures (token fuel, chase script);
  // accept its names here too so one scenario axis can sweep the whole
  // mutex menagerie.
  for (const auto ring_name : mutex::kRingVariantNames) {
    if (spec.variant == ring_name) {
      build_ring(ctx);
      return;
    }
  }

  auto& monitor = ctx.emplace<mutex::CsMonitor>();

  std::function<void(MhId)> request;
  if (spec.variant == "l1") {
    auto* l1 = &ctx.emplace<mutex::L1Mutex>(net, monitor);
    request = [l1](MhId mh) { l1->request(mh); };
    ctx.metric("completed", [l1] { return static_cast<double>(l1->completed()); });
  } else if (spec.variant == "l2") {
    auto* l2 = &ctx.emplace<mutex::L2Mutex>(net, monitor);
    request = [l2](MhId mh) { l2->request(mh); };
    ctx.metric("completed", [l2] { return static_cast<double>(l2->completed()); });
    ctx.metric("aborted", [l2] { return static_cast<double>(l2->aborted()); });
  } else if (spec.variant == "pathrev") {
    auto* nt = &ctx.emplace<mutex::PathRevMutex>(net, monitor);
    request = [nt](MhId mh) { nt->request(mh); };
    ctx.metric("completed", [nt] { return static_cast<double>(nt->completed()); });
    ctx.metric("skipped_disconnected",
               [nt] { return static_cast<double>(nt->skipped_disconnected()); });
    ctx.metric("bounced_grants",
               [nt] { return static_cast<double>(nt->bounced_grants()); });
    ctx.metric("rehomed", [nt] { return static_cast<double>(nt->rehomed()); });
  } else {
    bad_variant(spec, mutex::kMutexVariantNames);
  }
  monitor_metrics(ctx, monitor);
  auto* netp = &net;
  const auto cost = spec.cost;
  ctx.metric("initiator_energy",
             [netp, cost] { return netp->ledger().energy_at(0, cost); });

  const auto requests = ctx.spec().param_u64("requests", 1);
  const auto start = ctx.spec().param_u64("request_start", 1);
  const auto gap = ctx.spec().param_u64("request_gap", 0);
  for (std::uint64_t i = 0; i < requests; ++i) {
    const auto mh = static_cast<MhId>(i % n);
    net.sched().schedule_at(start + i * gap, [request, mh] { request(mh); });
  }

  // Optional scripted move of the first requester (e1's L2 release relay).
  if (const auto move_at = spec.param_u64("move_at", 0); move_at != 0) {
    const auto to = static_cast<MssId>(spec.param_u64("move_to", 1));
    const auto transit = spec.param_u64("move_transit", 2);
    net.sched().schedule_at(move_at, [&net, to, transit] {
      net.mh(MhId(0)).move_to(to, transit);
    });
  }

  // Everyone but the first requester dozes (e2's battery story).
  if (spec.param_u64("doze_others", 0) != 0) {
    for (std::uint32_t i = 1; i < n; ++i) net.mh(static_cast<MhId>(i)).set_doze(true);
  }

  // Optional scripted disconnect (e2's tolerance scenarios).
  if (const auto disc_at = spec.param_u64("disconnect_at", 0); disc_at != 0) {
    const auto mh = static_cast<MhId>(spec.param_u64("disconnect_mh", 0));
    net.sched().schedule_at(disc_at, [&net, mh] { net.mh(mh).disconnect(); });
  }

  schedule_chaos_moves(ctx);

  if (const auto until = spec.param_u64("run_until", 0); until != 0) ctx.run_until(until);
}

// --- ring: R1 / R2 / R2' / R2'' (benches e3, e4; chaos) --------------------

void build_ring(ScenarioContext& ctx) {
  const auto& spec = ctx.spec();
  auto& net = ctx.net();
  const std::uint32_t n = net.num_mh();
  const std::uint32_t m = net.num_mss();
  auto& monitor = ctx.emplace<mutex::CsMonitor>();

  const auto traversals = spec.param_u64("traversals", 1);
  std::function<void(MhId)> request;
  mutex::R2Mutex* r2 = nullptr;
  if (spec.variant == "r1") {
    auto* r1 = &ctx.emplace<mutex::R1Mutex>(net, monitor);
    request = [r1](MhId mh) { r1->request(mh); };
    ctx.metric("completed", [r1] { return static_cast<double>(r1->completed()); });
    const auto token_at = spec.param_u64("token_at", 1);
    net.sched().schedule_at(token_at, [r1, traversals] { r1->start_token(traversals); });
  } else {
    mutex::RingVariant variant;
    if (spec.variant == "r2") variant = mutex::RingVariant::kBasic;
    else if (spec.variant == "r2p") variant = mutex::RingVariant::kCounter;
    else if (spec.variant == "r2pp") variant = mutex::RingVariant::kTokenList;
    else bad_variant(spec, mutex::kRingVariantNames);
    r2 = &ctx.emplace<mutex::R2Mutex>(net, monitor, variant);
    request = [r2](MhId mh) { r2->request(mh); };
    ctx.metric("completed", [r2] { return static_cast<double>(r2->completed()); });
    if (spec.param_u64("malicious", 0) != 0) r2->set_malicious(MhId(0), true);
    if (spec.param_u64("absorb_idle", 0) != 0) r2->set_absorb_when_idle(true);
    const auto token_at = spec.param_u64("token_at", 5);
    net.sched().schedule_at(token_at, [r2, traversals] { r2->start_token(traversals); });
  }
  monitor_metrics(ctx, monitor);

  const auto requests = spec.param_u64("requests", 0);
  const auto start = spec.param_u64("request_start", 0);
  const auto gap = spec.param_u64("request_gap", 0);
  for (std::uint64_t i = 0; i < requests; ++i) {
    const auto mh = static_cast<MhId>(i % n);
    net.sched().schedule_at(start + i * gap, [request, mh] { request(mh); });
  }

  // e4's token chase: mh0 requests at its start cell, then hops one cell
  // ahead of the slow token and requests again at every stop.
  if (spec.param_u64("chase", 0) != 0) {
    if (r2 == nullptr) bad_workload(spec, "'chase' needs an R2 variant");
    net.sched().schedule_at(1, [request] { request(MhId(0)); });
    const auto hop_gap = spec.param_u64("chase_hop_gap", 200);
    for (std::uint32_t cell = 1; cell < m; ++cell) {
      const sim::SimTime when = 60 + (cell - 1) * hop_gap;
      net.sched().schedule_at(when, [&net, cell] {
        auto& host = net.mh(MhId(0));
        if (host.connected() && host.current_mss() != static_cast<MssId>(cell)) {
          host.move_to(static_cast<MssId>(cell), 3);
        }
      });
      net.sched().schedule_at(when + 10, [request] { request(MhId(0)); });
    }
    ctx.metric("grants_traversal1",
               [r2] { return static_cast<double>(r2->grants_for(MhId(0), 1)); });
  }

  schedule_chaos_moves(ctx);
}

// --- delivery: one locate-and-deliver (bench a1) ---------------------------

class PingStation : public net::MssAgent {
 public:
  void on_message(const net::Envelope&) override {}
  void ping(MhId target) { send_to_mh(target, 1); }
};

class PingHost : public net::MhAgent {
 public:
  void on_message(const net::Envelope&) override { ++received; }
  std::uint64_t received = 0;
};

void build_delivery(ScenarioContext& ctx) {
  const auto& spec = ctx.spec();
  auto& net = ctx.net();
  require_topology(spec, 2, 2);
  auto station = std::make_shared<PingStation>();
  auto host = std::make_shared<PingHost>();
  ctx.emplace<std::shared_ptr<PingStation>>(station);
  ctx.emplace<std::shared_ptr<PingHost>>(host);
  const auto target = static_cast<MhId>(net.num_mh() - 1);
  net.mss(MssId(0)).register_agent(net::protocol::kUserBase, station);
  net.mh(target).register_agent(net::protocol::kUserBase, host);
  if (spec.param_u64("in_transit", 0) != 0) {
    net.sched().schedule_at(1, [&net, target] {
      net.mh(target).move_to(MssId(1), 120);  // long transit across the query
    });
  }
  net.sched().schedule_at(5, [station, target] { station->ping(target); });
  ctx.metric("delivered", [host] { return static_cast<double>(host->received); });
}

// --- relay_burst: MH-to-MH FIFO resequencer (bench a2) ---------------------

class BurstReceiver : public net::MhAgent {
 public:
  void on_message(const net::Envelope& env) override {
    if (const auto* value = net::body_as<int>(env)) received.push_back(*value);
  }
  std::vector<int> received;
};

class BurstSender : public net::MhAgent {
 public:
  void on_message(const net::Envelope&) override {}
  void burst(MhId to, int from, int count, bool fifo) {
    for (int i = from; i < from + count; ++i) send_to_mh(to, i, fifo);
  }
};

void build_relay_burst(ScenarioContext& ctx) {
  const auto& spec = ctx.spec();
  auto& net = ctx.net();
  require_topology(spec, 4, 2);
  static constexpr std::string_view kNames[] = {"raw", "fifo"};
  bool fifo = false;
  if (spec.variant == "fifo") fifo = true;
  else if (spec.variant != "raw") bad_variant(spec, kNames);

  auto sender = std::make_shared<BurstSender>();
  auto receiver = std::make_shared<BurstReceiver>();
  ctx.emplace<std::shared_ptr<BurstSender>>(sender);
  ctx.emplace<std::shared_ptr<BurstReceiver>>(receiver);
  net.mh(MhId(0)).register_agent(net::protocol::kUserBase, sender);
  net.mh(MhId(1)).register_agent(net::protocol::kUserBase, receiver);

  const int burst = static_cast<int>(spec.param_u64("burst", 15));
  net.sched().schedule_at(1, [sender, burst, fifo] {
    sender->burst(MhId(1), 0, burst, fifo);
  });
  net.sched().schedule_at(4, [&net] { net.mh(MhId(1)).move_to(MssId(2), 30); });
  net.sched().schedule_at(80, [sender, burst, fifo] {
    sender->burst(MhId(1), burst, burst, fifo);
  });
  net.sched().schedule_at(90, [&net] { net.mh(MhId(1)).move_to(MssId(3), 25); });

  ctx.metric("delivered", [receiver] { return static_cast<double>(receiver->received.size()); });
  ctx.metric("inversions", [receiver] {
    std::uint64_t inversions = 0;
    for (std::size_t i = 1; i < receiver->received.size(); ++i) {
      if (receiver->received[i] < receiver->received[i - 1]) ++inversions;
    }
    return static_cast<double>(inversions);
  });
}

// --- lazy_proxy: inform-period U-curve (bench a3) --------------------------

void build_lazy_proxy(ScenarioContext& ctx) {
  const auto& spec = ctx.spec();
  auto& net = ctx.net();
  const std::uint32_t m = net.num_mss();
  require_topology(spec, 2, 1);
  proxy::ProxyOptions opts;
  opts.scope = proxy::ProxyScope::kLazyHome;
  opts.inform_every = static_cast<std::uint32_t>(spec.param_u64("inform_every", 3));
  auto& proxies = ctx.emplace<proxy::ProxyService>(net, opts);
  auto delivered = std::make_shared<std::uint64_t>(0);
  proxies.set_client_handler([delivered](MhId, const std::any&) { ++*delivered; });

  const auto moves = spec.param_u64("moves", 24);
  const auto send_every = spec.param_u64("send_every", 3);
  const auto move_gap = spec.param_u64("move_gap", 40);
  auto* service = &proxies;
  for (std::uint64_t move = 0; move < moves; ++move) {
    net.sched().schedule_at(1 + move_gap * move, [&net, m] {
      auto& host = net.mh(MhId(0));
      if (!host.connected()) return;
      const auto next = static_cast<MssId>((net::index(host.current_mss()) + 1) % m);
      host.move_to(next, 4);
    });
    if (send_every != 0 && move % send_every == send_every - 1) {
      net.sched().schedule_at(move_gap / 2 + move_gap * move, [service] {
        service->proxy_send(MssId(0), MhId(0), 1);
      });
    }
  }
  ctx.metric("informs", [service] { return static_cast<double>(service->informs()); });
  ctx.metric("delivered", [delivered] { return static_cast<double>(*delivered); });
}

// --- multicast: flood+handoff vs per-recipient search (bench a4) -----------

class NaiveMcastSender : public net::MssAgent {
 public:
  explicit NaiveMcastSender(group::Group recipients) : recipients_(std::move(recipients)) {}
  void on_message(const net::Envelope&) override {}
  void blast(std::uint64_t msg_id) {
    for (const auto mh : recipients_.members) send_to_mh(mh, msg_id);
  }

 private:
  group::Group recipients_;
};

class NaiveMcastReceiver : public net::MhAgent {
 public:
  explicit NaiveMcastReceiver(group::DeliveryMonitor& monitor) : monitor_(monitor) {}
  void on_message(const net::Envelope& env) override {
    if (const auto* id = net::body_as<std::uint64_t>(env)) monitor_.delivered(*id, self());
  }

 private:
  group::DeliveryMonitor& monitor_;
};

void build_multicast(ScenarioContext& ctx) {
  const auto& spec = ctx.spec();
  auto& net = ctx.net();
  const auto count = static_cast<std::uint32_t>(spec.param_u64("recipients", 4));
  require_topology(spec, 2, count);
  std::vector<MhId> members;
  for (std::uint32_t i = 0; i < count; ++i) members.push_back(static_cast<MhId>(i));
  const auto recipients = group::Group::of(members);
  const auto messages = spec.param_u64("messages", 20);

  // Background mobility over the recipient set only, configured by the
  // spec's mobility block but driven here regardless of spec.mobility
  // (which would move every host instead).
  auto& driver = ctx.emplace<mobility::MobilityDriver>(net, spec.mob, members);
  auto* driver_ptr = &driver;
  ctx.after_start([driver_ptr] { driver_ptr->start(); });

  if (spec.variant == "flood") {
    auto& mcast = ctx.emplace<multicast::McastService>(net, recipients);
    auto* service = &mcast;
    for (std::uint64_t i = 0; i < messages; ++i) {
      net.sched().schedule_at(5 + 25 * i, [service] { service->publish(MssId(0)); });
    }
    ctx.metric("exactly_once", [service, recipients] {
      return service->monitor().exactly_once(recipients) ? 1.0 : 0.0;
    });
  } else if (spec.variant == "search") {
    auto& monitor = ctx.emplace<group::DeliveryMonitor>();
    auto sender = std::make_shared<NaiveMcastSender>(recipients);
    ctx.emplace<std::shared_ptr<NaiveMcastSender>>(sender);
    net.mss(MssId(0)).register_agent(net::protocol::kUserBase + 9, sender);
    for (std::uint32_t i = 1; i < net.num_mss(); ++i) {
      net.mss(static_cast<MssId>(i))
          .register_agent(net::protocol::kUserBase + 9,
                          std::make_shared<NaiveMcastSender>(recipients));
    }
    for (const auto mh : recipients.members) {
      net.mh(mh).register_agent(net::protocol::kUserBase + 9,
                                std::make_shared<NaiveMcastReceiver>(monitor));
    }
    auto* mon = &monitor;
    for (std::uint64_t i = 0; i < messages; ++i) {
      net.sched().schedule_at(5 + 25 * i, [mon, sender, i] {
        mon->sent(i + 1, net::kInvalidMh);
        sender->blast(i + 1);
      });
    }
    ctx.metric("exactly_once", [mon, recipients] {
      return mon->exactly_once(recipients) ? 1.0 : 0.0;
    });
  } else {
    static constexpr std::string_view kNames[] = {"flood", "search"};
    bad_variant(spec, kNames);
  }
}

// --- group: the three §4 location strategies (bench e5) --------------------

/// Variant names shared by the `group` and `group_mobility` workloads.
constexpr std::string_view kGroupVariantNames[] = {"pure_search", "always_inform",
                                                   "location_view"};

/// Construct the §4 strategy named by spec.variant over `group`, wire
/// its exactly-once (and LV bookkeeping) metrics, and hand back the
/// send-one-group-message closure the message schedule drives.
std::function<void(MhId)> build_group_strategy(ScenarioContext& ctx,
                                               const group::Group& group) {
  const auto& spec = ctx.spec();
  auto& net = ctx.net();
  if (spec.variant == "pure_search") {
    auto* comm = &ctx.emplace<group::PureSearchGroup>(net, group);
    ctx.metric("exactly_once",
               [comm, group] { return comm->monitor().exactly_once(group) ? 1.0 : 0.0; });
    return [comm](MhId sender) { comm->send_group_message(sender); };
  }
  if (spec.variant == "always_inform") {
    auto* comm = &ctx.emplace<group::AlwaysInformGroup>(net, group);
    ctx.metric("exactly_once",
               [comm, group] { return comm->monitor().exactly_once(group) ? 1.0 : 0.0; });
    return [comm](MhId sender) { comm->send_group_message(sender); };
  }
  if (spec.variant == "location_view") {
    auto* comm = &ctx.emplace<group::LocationViewGroup>(net, group);
    ctx.metric("exactly_once",
               [comm, group] { return comm->monitor().exactly_once(group) ? 1.0 : 0.0; });
    ctx.metric("lv_max", [comm] { return static_cast<double>(comm->max_view_size()); });
    ctx.metric("significant_moves",
               [comm] { return static_cast<double>(comm->significant_moves()); });
    return [comm](MhId sender) { comm->send_group_message(sender); };
  }
  bad_variant(spec, kGroupVariantNames);
}

workload::MobMsgDriver::Config group_driver_config(const ScenarioSpec& spec) {
  workload::MobMsgDriver::Config cfg;
  cfg.messages = spec.param_u64("messages", 40);
  cfg.mob_per_msg = spec.param("mob_per_msg", 1.0);
  cfg.significant_fraction = spec.param("significant_fraction", 0.5);
  cfg.step = spec.param_u64("step", 40);
  cfg.transit = spec.param_u64("transit", 3);
  return cfg;
}

void build_group(ScenarioContext& ctx) {
  const auto& spec = ctx.spec();
  auto& net = ctx.net();
  // e5's clustered layout: five members across cells 0 and 1 (round
  // robin), cells 0/1 anchored into LV(G), cells 5..7 fresh, mh16 roves.
  require_topology(spec, 8, 18);
  const auto group = group::Group::of({MhId(0), MhId(8), MhId(16), MhId(1), MhId(9)});
  const std::vector<MssId> anchored{MssId(0), MssId(1)};
  const std::vector<MssId> fresh{MssId(5), MssId(6), MssId(7)};
  const auto rover = MhId(16);

  auto strategy_send = build_group_strategy(ctx, group);
  std::function<void(std::uint64_t)> send_fn = [strategy_send](std::uint64_t) {
    strategy_send(MhId(0));
  };

  auto& driver = ctx.emplace<workload::MobMsgDriver>(
      net, group_driver_config(spec), anchored, fresh, rover, std::move(send_fn));
  auto* driver_ptr = &driver;
  ctx.after_start([driver_ptr] { driver_ptr->start(); });
  ctx.metric("moves_scheduled",
             [driver_ptr] { return static_cast<double>(driver_ptr->moves_scheduled()); });
  ctx.metric("significant_scheduled", [driver_ptr] {
    return static_cast<double>(driver_ptr->significant_scheduled());
  });
}

// --- group_mobility: §4 strategies under model-driven mobility (bench e11) -

/// E11's group half: a group of `group_size` members (round-robin over
/// the cells) exchanges `messages` paced group messages while a
/// MobilityModel moves them in the background. Unlike `group` (whose
/// MobMsgDriver scripts an exact significant fraction), the move stream
/// here IS the model under test — skew shows up in workload.mob.f_region_*
/// and the strategies' cost.total splits on it.
void build_group_mobility(ScenarioContext& ctx) {
  const auto& spec = ctx.spec();
  auto& net = ctx.net();
  const auto group_size = static_cast<std::uint32_t>(spec.param_u64("group_size", 8));
  if (group_size < 2) bad_workload(spec, "group_size must be at least 2");
  require_topology(spec, 2, group_size);
  std::vector<MhId> members;
  members.reserve(group_size);
  for (std::uint32_t i = 0; i < group_size; ++i) members.push_back(static_cast<MhId>(i));
  const auto group = group::Group::of(members);

  auto strategy_send = build_group_strategy(ctx, group);

  // Background mobility over the members from the spec's mobility block.
  // When spec.mobility is on, the generic whole-population driver in
  // run_scenario moves them (and everyone else) instead — million-MH
  // generated scenarios use that path.
  if (!spec.mobility) {
    auto& driver = ctx.emplace<mobility::MobilityDriver>(net, spec.mob, members);
    auto* driver_ptr = &driver;
    ctx.after_start([driver_ptr] { driver_ptr->start(); });
    mobility_metrics(ctx, driver);
  }

  const auto messages = spec.param_u64("messages", 24);
  const auto gap = spec.param_u64("message_gap", 60);
  const auto start = spec.param_u64("message_start", 25);
  auto counter = std::make_shared<std::uint64_t>(0);
  workload::paced_calls(net, messages, gap, start,
                        [strategy_send, members, group_size, counter](std::uint64_t seq) {
                          strategy_send(members[seq % group_size]);
                          ++*counter;
                        });
  ctx.metric("messages_sent", [counter] { return static_cast<double>(*counter); });
}

// --- proxy_mutex: Lamport over the three proxy scopes (bench e6) -----------

void build_proxy_mutex(ScenarioContext& ctx) {
  const auto& spec = ctx.spec();
  auto& net = ctx.net();
  const std::uint32_t m = net.num_mss();
  const std::uint32_t n = net.num_mh();
  require_topology(spec, 2, 1);

  proxy::ProxyOptions opts;
  static constexpr std::string_view kNames[] = {"local_mss", "fixed_home", "lazy_home"};
  if (spec.variant == "local_mss") opts.scope = proxy::ProxyScope::kLocalMss;
  else if (spec.variant == "fixed_home") opts.scope = proxy::ProxyScope::kFixedHome;
  else if (spec.variant == "lazy_home") opts.scope = proxy::ProxyScope::kLazyHome;
  else bad_variant(spec, kNames);
  opts.inform_every = static_cast<std::uint32_t>(spec.param_u64("inform_every", 3));

  auto& proxies = ctx.emplace<proxy::ProxyService>(net, opts);
  auto& monitor = ctx.emplace<mutex::CsMonitor>();

  // Which static-host algorithm runs behind the proxies: Lamport by
  // default, the Naimi–Trehel path-reversal engine when the numeric
  // `pathrev` param is non-zero (scenario params are numbers, so the
  // variant string stays the proxy scope).
  std::function<void(MhId)> algo_request;
  std::function<double()> algo_completed;
  if (spec.param_u64("pathrev", 0) != 0) {
    auto* nt = &ctx.emplace<proxy::ProxiedPathRev>(net, proxies, monitor);
    algo_request = [nt](MhId mh) { nt->request(mh); };
    algo_completed = [nt] { return static_cast<double>(nt->completed()); };
    ctx.metric("aborted", [nt] { return static_cast<double>(nt->aborted()); });
  } else {
    auto* lamport = &ctx.emplace<proxy::ProxiedLamport>(net, proxies, monitor);
    algo_request = [lamport](MhId mh) { lamport->request(mh); };
    algo_completed = [lamport] { return static_cast<double>(lamport->completed()); };
  }

  const auto requests = spec.param_u64("requests", 8);
  const auto moves_per_request = spec.param_u64("moves_per_request", 0);
  const std::uint64_t total_moves = moves_per_request * requests;
  for (std::uint64_t move = 0; move < total_moves; ++move) {
    const auto host = static_cast<MhId>(move % n);
    net.sched().schedule_at(1 + 25 * move, [&net, host, m] {
      auto& mobile = net.mh(host);
      if (!mobile.connected()) return;
      const auto next = static_cast<MssId>((net::index(mobile.current_mss()) + 1) % m);
      mobile.move_to(next, 4);
    });
  }
  const sim::SimTime request_start = 10 + 25 * total_moves;
  for (std::uint64_t i = 0; i < requests; ++i) {
    const auto mh = static_cast<MhId>(i % n);
    net.sched().schedule_at(request_start + 60 * i,
                            [algo_request, mh] { algo_request(mh); });
  }

  auto* service = &proxies;
  ctx.metric("informs", [service] { return static_cast<double>(service->informs()); });
  ctx.metric("completed", algo_completed);
  monitor_metrics(ctx, monitor);
}

// --- scale: hot-path throughput driver (bench e8) --------------------------

// The "echo" variant keeps every MH in a chained ping loop against its
// local MSS (uplink data frame, wireless echo back), so fired events grow
// as ~6 x pings x num_mh with realistic Envelope traffic while the
// pending queue stays O(num_mh). The "timers" variant stresses the
// cancellation path instead: each tick schedules `churn` far-future
// timers and cancels the previous batch.

class EchoStation : public net::MssAgent {
 public:
  void on_message(const net::Envelope& env) override {
    if (const auto* value = net::body_as<std::uint64_t>(env)) {
      ++echoed_;
      send_local(env.src.mh(), *value);
    }
  }
  [[nodiscard]] std::uint64_t echoed() const noexcept { return echoed_; }

 private:
  std::uint64_t echoed_ = 0;
};

class EchoHost : public net::MhAgent {
 public:
  void on_message(const net::Envelope&) override { ++received_; }

  /// Send one uplink ping and chain the next `gap` ticks later.
  void ping(std::uint64_t remaining, sim::Duration gap) {
    send_uplink(std::uint64_t{remaining});
    ++sent_;
    if (remaining > 1) {
      net().sched().schedule(gap, [this, remaining, gap] { ping(remaining - 1, gap); });
    }
  }

  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }

 private:
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

/// Timer-churn driver: every tick cancels the previous batch of
/// far-future timers and schedules a fresh one — the schedule-then-regret
/// pattern whose cancelled events linger in the queue until their distant
/// firing time unless the scheduler reclaims them eagerly. Resolves its
/// scheduler through the Network at tick time (not a captured reference):
/// on the sharded engine sched() is the executing shard's queue, so each
/// churner's timers and handles stay on the lane that runs it.
class TimerChurn {
 public:
  explicit TimerChurn(net::Network& net) : net_(net) {}

  void tick(std::uint64_t remaining, std::uint64_t churn, sim::Duration gap) {
    auto& sched = net_.sched();
    for (const auto handle : parked_) {
      if (sched.cancel(handle)) ++cancelled_;
    }
    parked_.clear();
    if (remaining == 0) return;
    constexpr sim::Duration kFarFuture = 1'000'000'000;
    for (std::uint64_t k = 0; k < churn; ++k) {
      parked_.push_back(sched.schedule(kFarFuture + k, [] {}));
    }
    sched.schedule(gap, [this, remaining, churn, gap] {
      tick(remaining - 1, churn, gap);
    });
  }

  [[nodiscard]] std::uint64_t cancelled() const noexcept { return cancelled_; }

 private:
  net::Network& net_;
  std::vector<sim::EventHandle> parked_;
  std::uint64_t cancelled_ = 0;
};

void build_scale(ScenarioContext& ctx) {
  const auto& spec = ctx.spec();
  auto& net = ctx.net();
  require_topology(spec, 1, 1);
  const std::uint32_t n = net.num_mh();
  const auto gap = std::max<std::uint64_t>(1, spec.param_u64("gap", 7));

  if (spec.variant == "echo") {
    const auto pings = spec.param_u64("pings", 50);
    auto& stations = ctx.emplace<std::vector<std::shared_ptr<EchoStation>>>();
    for (std::uint32_t s = 0; s < net.num_mss(); ++s) {
      auto station = std::make_shared<EchoStation>();
      net.mss(static_cast<MssId>(s)).register_agent(net::protocol::kUserBase, station);
      stations.push_back(std::move(station));
    }
    auto& hosts = ctx.emplace<std::vector<std::shared_ptr<EchoHost>>>();
    for (std::uint32_t h = 0; h < n; ++h) {
      auto host = std::make_shared<EchoHost>();
      net.mh(static_cast<MhId>(h)).register_agent(net::protocol::kUserBase, host);
      hosts.push_back(host);
      // Stagger start instants across the gap so uplinks don't all land
      // on the same tick. Primed on the lane owning the host's cell so
      // the sharded engine starts each loop on its own shard.
      auto* driver = host.get();
      net.schedule_on_lane(net.lane_of(obs::Entity::mh(h)), 1 + h % gap,
                           [driver, pings, gap] { driver->ping(pings, gap); });
    }
    ctx.metric("sent", [&hosts] {
      std::uint64_t total = 0;
      for (const auto& host : hosts) total += host->sent();
      return static_cast<double>(total);
    });
    ctx.metric("delivered", [&hosts] {
      std::uint64_t total = 0;
      for (const auto& host : hosts) total += host->received();
      return static_cast<double>(total);
    });
    ctx.metric("echoed", [&stations] {
      std::uint64_t total = 0;
      for (const auto& station : stations) total += station->echoed();
      return static_cast<double>(total);
    });
  } else if (spec.variant == "timers") {
    const auto ticks = spec.param_u64("ticks", 64);
    const auto churn = spec.param_u64("churn", 16);
    auto& drivers = ctx.emplace<std::vector<std::shared_ptr<TimerChurn>>>();
    for (std::uint32_t h = 0; h < n; ++h) {
      auto driver = std::make_shared<TimerChurn>(net);
      drivers.push_back(driver);
      auto* churner = driver.get();
      net.schedule_on_lane(net.lane_of(obs::Entity::mh(h)), 1 + h % gap,
                           [churner, ticks, churn, gap] {
                             churner->tick(ticks, churn, gap);
                           });
    }
    ctx.metric("cancelled", [&drivers] {
      std::uint64_t total = 0;
      for (const auto& driver : drivers) total += driver->cancelled();
      return static_cast<double>(total);
    });
  } else {
    static constexpr std::string_view kNames[] = {"echo", "timers"};
    bad_variant(spec, kNames);
  }
}

// --- harvest ---------------------------------------------------------------

/// Crash and recover events in the checked trace.
struct FaultTally {
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
};

void harvest(RunResult& result, const ScenarioSpec& spec, const net::Network& net,
             ScenarioContext& ctx, const FaultTally& tally) {
  auto& m = result.metrics;
  const auto& ledger = net.ledger();
  m["cost.total"] = ledger.total(spec.cost);
  m["cost.energy"] = ledger.total_energy(spec.cost);
  m["ledger.fixed_msgs"] = static_cast<double>(ledger.fixed_msgs());
  m["ledger.wired_packets"] = static_cast<double>(ledger.wired_packets());
  m["ledger.wireless_msgs"] = static_cast<double>(ledger.wireless_msgs());
  m["ledger.searches"] = static_cast<double>(ledger.searches());
  m["ledger.wireless_tx"] = static_cast<double>(ledger.wireless_tx());
  m["ledger.wireless_rx"] = static_cast<double>(ledger.wireless_rx());
  m["sched.fired"] = static_cast<double>(net.total_fired());
  m["sched.hit_event_limit"] = net.hit_event_limit() ? 1.0 : 0.0;
  m["events.emitted"] = static_cast<double>(net.events_emitted());
  m["events.dropped"] = static_cast<double>(net.events_dropped());

  m["events.mss_crash"] = static_cast<double>(tally.crashes);
  m["events.mss_recover"] = static_cast<double>(tally.recoveries);

  for (const auto& [name, counter] : net.metrics().counters()) {
    m[name] = static_cast<double>(counter.value());
  }
  for (const auto& [name, gauge] : net.metrics().gauges()) {
    m[name] = static_cast<double>(gauge.value());
  }
  for (const auto& [name, histogram] : net.metrics().histograms()) {
    m[name + ".count"] = static_cast<double>(histogram.count());
    m[name + ".mean"] = histogram.mean();
    m[name + ".max"] = static_cast<double>(histogram.max());
  }
  for (const auto& [name, producer] : ctx.extras()) {
    m["workload." + name] = producer();
  }
}

std::string cell_slug(std::string_view cell) {
  std::string slug(cell);
  for (char& c : slug) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return slug;
}

}  // namespace

// --- WorkloadLibrary -------------------------------------------------------

const WorkloadLibrary& WorkloadLibrary::builtin() {
  static const WorkloadLibrary library = [] {
    WorkloadLibrary lib;
    lib.add("mutex", build_mutex);
    lib.add("ring", build_ring);
    lib.add("delivery", build_delivery);
    lib.add("relay_burst", build_relay_burst);
    lib.add("lazy_proxy", build_lazy_proxy);
    lib.add("multicast", build_multicast);
    lib.add("group", build_group);
    lib.add("group_mobility", build_group_mobility);
    lib.add("proxy_mutex", build_proxy_mutex);
    // scale is the one workload whose traffic is entirely lane-local
    // (in-cell echo loops, per-lane timer churn) — the sharded engine's
    // target shape. Everything above moves hosts or chases them.
    lib.add("scale", build_scale, /*shard_safe=*/true);
    return lib;
  }();
  return library;
}

void WorkloadLibrary::add(std::string name, Builder builder, bool shard_safe) {
  builders_.insert_or_assign(std::move(name), Entry{std::move(builder), shard_safe});
}

const WorkloadLibrary::Builder* WorkloadLibrary::find(std::string_view name) const {
  const auto it = builders_.find(name);
  return it == builders_.end() ? nullptr : &it->second.builder;
}

bool WorkloadLibrary::shard_safe(std::string_view name) const {
  const auto it = builders_.find(name);
  return it != builders_.end() && it->second.shard_safe;
}

std::vector<std::string> WorkloadLibrary::names() const {
  std::vector<std::string> names;
  names.reserve(builders_.size());
  for (const auto& [name, builder] : builders_) names.push_back(name);
  return names;
}

// --- run_scenario ----------------------------------------------------------

RunResult run_scenario(const RunPlan& plan, const WorkloadLibrary& workloads) {
  RunResult result;
  result.index = plan.index;
  result.cell = plan.cell;
  result.seed = plan.seed;
  try {
    ScenarioSpec spec = plan.spec;
    const auto* builder = workloads.find(spec.workload);
    if (builder == nullptr) {
      throw std::runtime_error("unknown workload '" + spec.workload + "'");
    }

    // Shards axis classification: the sharded engine supports static
    // topologies only, so a requested shard count is honoured only for
    // shard-safe workloads without mobility or faults. Everything else
    // collapses to the legacy engine — identically for EVERY requested
    // count, which is what lets the shard-independence gate sweep the
    // whole scenario matrix.
    if (spec.net.shards != 0 &&
        !(workloads.shard_safe(spec.workload) && !spec.mobility && !spec.has_faults())) {
      spec.net.shards = 0;
    }

    net::Network net(spec.net);
    if (spec.has_faults()) net.install_fault_plane(spec.fault);
    ScenarioContext ctx(spec, net);
    (*builder)(ctx);

    // Generic whole-population mobility; workloads that drive a subset
    // construct their own driver instead of enabling spec.mobility.
    if (spec.mobility) {
      auto& driver = ctx.emplace<mobility::MobilityDriver>(net, spec.mob);
      auto* driver_ptr = &driver;
      ctx.after_start([driver_ptr] { driver_ptr->start(); });
      mobility_metrics(ctx, driver);
    }

    if (ctx.run_until_ != 0 && net.sharded()) {
      // run_until drives one scheduler directly, bypassing the window
      // protocol; no current shard-safe workload requests it, so reject
      // rather than silently run a partial system.
      throw std::runtime_error("run_until is not supported on the sharded engine");
    }

    const auto sim_begin = std::chrono::steady_clock::now();
    net.start();
    for (const auto& hook : ctx.after_start_) hook();
    if (ctx.run_until_ != 0) {
      net.sched().run_until(ctx.run_until_);
    } else {
      net.run();
    }
    result.wall_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - sim_begin)
            .count();

    // Every run is a correctness oracle: the paper's safety properties
    // must hold on the event stream it just produced. The sharded engine
    // is checked on its canonical merged trace (per-shard streams are
    // partial views with cross-stream cause refs), read from the rings
    // in place; the same visit tallies crashes for the harvest.
    obs::TraceChecker checker;
    checker.reserve(net.events_emitted() - net.events_dropped());
    FaultTally tally;
    net.for_each_event([&](const obs::Event& event) {
      checker.feed(event);
      if (event.kind == obs::EventKind::kMssCrash) ++tally.crashes;
      if (event.kind == obs::EventKind::kMssRecover) ++tally.recoveries;
    });
    const auto failures = checker.finish();
    if (!failures.empty()) {
      result.error = "trace checkers failed:";
      const std::size_t shown = std::min<std::size_t>(failures.size(), 5);
      for (std::size_t i = 0; i < shown; ++i) {
        result.error += "\n  " + obs::to_string(failures[i]);
      }
      if (failures.size() > shown) {
        result.error += "\n  ... and " + std::to_string(failures.size() - shown) + " more";
      }
      return result;
    }

    harvest(result, spec, net, ctx, tally);
    result.ok = true;

    const std::string trace_dir = core::resolve_env_dir("MOBIDIST_TRACE_DIR", "");
    if (!trace_dir.empty()) {
      const std::string base = trace_dir + "TRACE_" + spec.name + "_" +
                               std::to_string(plan.index) + "_" + cell_slug(plan.cell);
      if (net.sharded()) {
        // The canonical merged trace is the sharded engine's exported
        // record — identical bytes for every shard count. The binlog
        // format is a single-ring serialization, so sharded runs fall
        // back to JSONL even under MOBIDIST_TRACE_FORMAT=binlog.
        const auto merged = net.merged_events();
        const std::span<const obs::Event> view(merged);
        core::write_text_file(base + ".jsonl", obs::to_jsonl(view));
        core::write_text_file(base + ".trace.json", obs::to_chrome_trace(view));
      } else if (core::resolve_trace_format() == core::TraceFormat::kBinlog) {
        core::write_text_file(base + ".binlog", obs::serialize_binlog(net.events()));
      } else {
        core::write_text_file(base + ".jsonl", obs::to_jsonl(net.events()));
        core::write_text_file(base + ".trace.json", obs::to_chrome_trace(net.events()));
      }
    }
  } catch (const std::exception& err) {
    result.ok = false;
    result.error = err.what();
  }
  return result;
}

// --- ParallelRunner --------------------------------------------------------

ParallelRunner::ParallelRunner(unsigned jobs) : jobs_(jobs) {
  if (jobs_ == 0) {
    jobs_ = std::max(1u, std::thread::hardware_concurrency());
  }
}

std::vector<RunResult> ParallelRunner::run(const std::vector<RunPlan>& plans,
                                           const RunFn& fn) const {
  std::vector<RunResult> results(plans.size());
  if (plans.empty()) return results;

  auto execute = [&fn](const RunPlan& plan) -> RunResult {
    try {
      return fn(plan);
    } catch (const std::exception& err) {
      RunResult failed;
      failed.index = plan.index;
      failed.cell = plan.cell;
      failed.seed = plan.seed;
      failed.error = err.what();
      return failed;
    }
  };

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, plans.size()));
  if (workers <= 1) {
    for (std::size_t i = 0; i < plans.size(); ++i) results[i] = execute(plans[i]);
    return results;
  }

  // Work stealing by atomic ticket: each worker claims the next
  // unclaimed plan and writes its own results slot, so the result vector
  // is position-stable no matter which thread ran what.
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= plans.size()) break;
        results[i] = execute(plans[i]);
      }
    });
  }
  for (auto& worker : pool) worker.join();
  return results;
}

std::vector<RunResult> ParallelRunner::run(const std::vector<RunPlan>& plans) const {
  return run(plans, [](const RunPlan& plan) { return run_scenario(plan); });
}

}  // namespace mobidist::exp
