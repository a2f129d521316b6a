// Offline validator for exported event-stream artifacts: reads a
// TRACE_*.jsonl file, re-runs every obs checker over it, and exits
// non-zero on a malformed line, a break in the event ids (a deleted or
// repeated line), or an invariant violation. Used by
// tests/run_trace_check.sh to validate bench traces from outside the
// process that produced them.

#include <cstdio>
#include <vector>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/checkers.hpp"
#include "obs/events.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: trace_check <trace.jsonl>\n";
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::cerr << "trace_check: cannot open " << argv[1] << '\n';
    return 2;
  }
  std::vector<mobidist::obs::Event> events;
  // Owns the storage behind every Event::detail view parsed below; must
  // outlive `events` (max capacity: a trace may carry more distinct tags
  // than the producer-side default).
  mobidist::obs::InternTable strings(mobidist::obs::InternTable::kMaxCapacity);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto event = mobidist::obs::event_from_json(line, strings);
    if (!event) {
      std::cerr << "trace_check: " << argv[1] << ":" << line_no << ": malformed event\n";
      return 2;
    }
    events.push_back(std::move(*event));
  }
  // check_all includes the fault_delivery checker, so fault-injected traces
  // are verified end to end: no recv may be causally parented to a send
  // the fault plane dropped, and crash/recover events must alternate.
  const auto failures = mobidist::obs::check_all(events);
  for (const auto& failure : failures) {
    std::cerr << "trace_check: " << argv[1] << ": " << to_string(failure) << '\n';
  }
  if (!failures.empty()) return 1;
  std::size_t drops = 0;
  std::size_t dups = 0;
  std::size_t crashes = 0;
  std::size_t packet_sends = 0;
  std::size_t packet_flushes = 0;
  std::size_t packet_msgs = 0;
  for (const auto& event : events) {
    switch (event.kind) {
      case mobidist::obs::EventKind::kMsgDropped: ++drops; break;
      case mobidist::obs::EventKind::kMsgDuplicated: ++dups; break;
      case mobidist::obs::EventKind::kMssCrash: ++crashes; break;
      case mobidist::obs::EventKind::kPacketSend:
        ++packet_sends;
        packet_msgs += event.arg;
        break;
      case mobidist::obs::EventKind::kPacketFlush: ++packet_flushes; break;
      default: break;
    }
  }
  std::cout << "trace_check: " << argv[1] << ": " << events.size()
            << " events, all checkers passed";
  if (drops + dups + crashes > 0) {
    std::cout << " (fault events: " << drops << " dropped, " << dups << " duplicated, "
              << crashes << " crashes)";
  }
  if (packet_sends > 0) {
    std::cout << " (formation: " << packet_sends << " packets sent, " << packet_flushes
              << " flushed, " << packet_msgs << " messages batched)";
  }
  std::cout << '\n';
  return 0;
}
