#pragma once

// Shared fixtures for substrate-level tests: recording agents that
// expose the protected send helpers and log every callback.

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/agent.hpp"
#include "net/envelope.hpp"
#include "net/ids.hpp"
#include "net/network.hpp"
#include "obs/checkers.hpp"

namespace mobidist::test {

using namespace mobidist::net;

inline constexpr ProtocolId kTestProto = protocol::kUserBase;

/// MSS-side agent that records everything and forwards sends.
class RecordingMssAgent : public MssAgent {
 public:
  struct Received {
    Envelope env;
    sim::SimTime at;
  };

  void on_message(const Envelope& env) override {
    received.push_back({env, net().sched().now()});
    if (on_msg) on_msg(env);
  }
  void on_mh_joined(MhId mh, MssId prev) override {
    events.push_back("joined:" + to_string(mh) + "<-" + to_string(prev));
    if (on_joined) on_joined(mh, prev);
  }
  void on_mh_left(MhId mh) override { events.push_back("left:" + to_string(mh)); }
  void on_mh_disconnected(MhId mh) override {
    events.push_back("disconnected:" + to_string(mh));
  }
  void on_mh_reconnected(MhId mh, MssId prev) override {
    events.push_back("reconnected:" + to_string(mh) + "<-" + to_string(prev));
  }
  Body on_handoff_out(MhId mh) override {
    events.push_back("handoff_out:" + to_string(mh));
    return handoff_blob;
  }
  void on_handoff_in(MhId mh, MssId from, const Body& state) override {
    events.push_back("handoff_in:" + to_string(mh) + "<-" + to_string(from));
    last_handoff_in = state;
    if (forward_handoff) handoff_blob = state;  // re-export on the next handoff_out
  }
  void on_mh_unreachable(MhId mh, const Body& body) override {
    events.push_back("unreachable:" + to_string(mh));
    unreachable.emplace_back(mh, body);
  }
  void on_local_send_failed(MhId mh, const Body& body) override {
    events.push_back("local_fail:" + to_string(mh));
    local_failures.emplace_back(mh, body);
  }

  // Public bridges to the protected send helpers.
  void do_send_wired(MssId to, Body body) { send_wired(to, std::move(body)); }
  void do_send_local(MhId mh, Body body) { send_local(mh, std::move(body)); }
  void do_send_to_mh(MhId mh, Body body,
                     SendPolicy policy = SendPolicy::kEventualDelivery) {
    send_to_mh(mh, std::move(body), policy);
  }

  std::vector<Received> received;
  std::vector<std::string> events;
  std::vector<std::pair<MhId, Body>> unreachable;
  std::vector<std::pair<MhId, Body>> local_failures;
  Body handoff_blob;
  Body last_handoff_in;
  bool forward_handoff = false;
  std::function<void(const Envelope&)> on_msg;
  std::function<void(MhId, MssId)> on_joined;
};

/// MH-side agent that records deliveries and forwards sends.
class RecordingMhAgent : public MhAgent {
 public:
  struct Received {
    Envelope env;
    sim::SimTime at;
  };

  void on_message(const Envelope& env) override {
    received.push_back({env, net().sched().now()});
    if (on_msg) on_msg(env);
  }
  void on_joined_cell(MssId mss) override { events.push_back("joined:" + to_string(mss)); }
  void on_left_cell() override { events.push_back("left"); }

  void do_send_uplink(Body body) { send_uplink(std::move(body)); }
  void do_send_to_mh(MhId dst, Body body, bool fifo = true) {
    send_to_mh(dst, std::move(body), fifo);
  }

  std::vector<Received> received;
  std::vector<std::string> events;
  std::function<void(const Envelope&)> on_msg;
};

/// Install one RecordingMssAgent per MSS and one RecordingMhAgent per MH
/// under kTestProto. The harness owns the agents, so it must outlive
/// every run of `n`; `mss` and `mh` point at them.
struct Harness {
  explicit Harness(Network& n) : net(n), mss_agents(n.num_mss()), mh_agents(n.num_mh()) {
    for (std::uint32_t i = 0; i < n.num_mss(); ++i) {
      mss.push_back(&mss_agents[i]);
      n.mss(static_cast<MssId>(i)).register_agent(kTestProto, mss.back());
    }
    for (std::uint32_t i = 0; i < n.num_mh(); ++i) {
      mh.push_back(&mh_agents[i]);
      n.mh(static_cast<MhId>(i)).register_agent(kTestProto, mh.back());
    }
  }

  Network& net;
  std::vector<RecordingMssAgent> mss_agents;
  std::vector<RecordingMhAgent> mh_agents;
  std::vector<RecordingMssAgent*> mss;
  std::vector<RecordingMhAgent*> mh;
};

/// Deterministic latency config (all constants) for exact-cost tests.
inline LatencyConfig fixed_latencies() {
  LatencyConfig l;
  l.wired_min = l.wired_max = 5;
  l.wireless_min = l.wireless_max = 2;
  l.search_min = l.search_max = 4;
  l.broadcast_retry = 50;
  return l;
}

inline NetConfig small_config(std::uint32_t m = 3, std::uint32_t n = 6) {
  NetConfig cfg;
  cfg.num_mss = m;
  cfg.num_mh = n;
  cfg.latency = fixed_latencies();
  cfg.seed = 12345;
  return cfg;
}

/// Kinds ("send", "token_depart", ...) of the events `mh` emitted after
/// its last join request went uplink, in emission order, receives left
/// out: what the host itself did once that join completed.
inline std::vector<std::string> actions_after_last_join(const Network& net, MhId mh) {
  std::vector<std::string> actions;
  for (const auto& ev : net.events().snapshot()) {
    if (ev.entity != entity_of(mh) || ev.kind == obs::EventKind::kRecv) continue;
    if (ev.kind == obs::EventKind::kSend && ev.detail == "join") {
      actions.clear();
      continue;
    }
    actions.emplace_back(obs::to_string(ev.kind));
  }
  return actions;
}

/// Run every obs checker over the network's trace (the legacy ring, or
/// the sharded engine's canonical merge, via Network::for_each_event)
/// and report each violation as a test failure. Call at the end of any
/// scenario that exercised real protocol traffic.
inline void ExpectCleanEventStream(const Network& net) {
  obs::TraceChecker checker;
  net.for_each_event([&checker](const obs::Event& ev) { checker.feed(ev); });
  for (const auto& failure : checker.finish()) {
    ADD_FAILURE() << "event-stream checker failed: " << obs::to_string(failure);
  }
}

}  // namespace mobidist::test
