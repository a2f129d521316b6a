#include "net/agent.hpp"

#include <utility>

#include "net/mobile_host.hpp"
#include "net/network.hpp"

namespace mobidist::net {

void MssAgent::send_wired(MssId to, Body body) {
  Envelope env;
  env.proto = proto_;
  env.body = std::move(body);
  net().send_wired(self_, to, std::move(env));
}

void MssAgent::send_local(MhId mh, Body body) {
  Envelope env;
  env.proto = proto_;
  env.src = self_;
  env.dst = mh;
  env.body = std::move(body);
  net().send_wireless_downlink(self_, std::move(env), mh,
                               [this, mh](const Envelope& failed) {
                                 on_local_send_failed(mh, failed.body);
                               });
}

void MssAgent::send_to_mh(MhId mh, Body body, SendPolicy policy) {
  Envelope env;
  env.proto = proto_;
  env.src = self_;
  env.dst = mh;
  env.body = std::move(body);
  net().send_to_mh(self_, std::move(env), mh, policy);
}

void MhAgent::send_uplink(Body body) {
  Envelope env;
  env.proto = proto_;
  env.src = self_;
  env.dst = net().mh(self_).current_mss();
  env.body = std::move(body);
  net().send_wireless_uplink(self_, std::move(env));
}

void MhAgent::send_to_mh(MhId dst, Body body, bool fifo) {
  net().mh(self_).send_relay(dst, proto_, std::move(body), fifo);
}

void MhAgent::when_connected(std::function<void()> action) {
  if (net().mh(self_).connected()) {
    action();
  } else {
    parked_.push_back(std::move(action));
  }
}

void MhAgent::run_parked() {
  std::vector<std::function<void()>> ready;
  ready.swap(parked_);
  for (auto& action : ready) action();
}

}  // namespace mobidist::net
