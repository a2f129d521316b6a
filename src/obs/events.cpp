#include "obs/events.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <utility>

namespace mobidist::obs {

namespace {

struct KindName {
  EventKind kind;
  std::string_view name;
};

constexpr std::array<KindName, 23> kKindNames{{
    {EventKind::kSend, "send"},
    {EventKind::kRecv, "recv"},
    {EventKind::kDeliver, "deliver"},
    {EventKind::kHandoffBegin, "handoff_begin"},
    {EventKind::kHandoffEnd, "handoff_end"},
    {EventKind::kDisconnect, "disconnect"},
    {EventKind::kReconnect, "reconnect"},
    {EventKind::kSearchRound, "search_round"},
    {EventKind::kCsRequest, "cs_request"},
    {EventKind::kCsEnter, "cs_enter"},
    {EventKind::kCsExit, "cs_exit"},
    {EventKind::kTokenDepart, "token_depart"},
    {EventKind::kTokenArrive, "token_arrive"},
    {EventKind::kLocationUpdate, "location_update"},
    {EventKind::kViewChange, "view_change"},
    {EventKind::kMsgDropped, "msg_dropped"},
    {EventKind::kMsgDuplicated, "msg_duplicated"},
    {EventKind::kMssCrash, "mss_crash"},
    {EventKind::kMssRecover, "mss_recover"},
    {EventKind::kPacketSend, "packet_send"},
    {EventKind::kPacketFlush, "packet_flush"},
    {EventKind::kReqForward, "req_forward"},
    {EventKind::kPathReversal, "path_reversal"},
}};

}  // namespace

std::string_view to_string(EventKind kind) noexcept {
  for (const auto& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

std::optional<EventKind> parse_kind(std::string_view text) noexcept {
  for (const auto& entry : kKindNames) {
    if (entry.name == text) return entry.kind;
  }
  return std::nullopt;
}

std::string to_string(Entity entity) {
  switch (entity.kind) {
    case Entity::Kind::kMss: return "mss:" + std::to_string(entity.idx);
    case Entity::Kind::kMh: return "mh:" + std::to_string(entity.idx);
    case Entity::Kind::kNone: break;
  }
  return "?";
}

std::optional<Entity> parse_entity(std::string_view text) noexcept {
  if (text == "?") return Entity{};
  Entity::Kind kind = Entity::Kind::kNone;
  if (text.starts_with("mss:")) {
    kind = Entity::Kind::kMss;
    text.remove_prefix(4);
  } else if (text.starts_with("mh:")) {
    kind = Entity::Kind::kMh;
    text.remove_prefix(3);
  } else {
    return std::nullopt;
  }
  std::uint32_t idx = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), idx);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return std::nullopt;
  return Entity{kind, idx};
}

EventId EventStream::emit(sim::SimTime at, const Emit& spec) {
  // Steady state (warm interner, grown counters): stack Event, one hash
  // lookup, one 64-byte ring store — zero heap allocations.
  const std::uint16_t detail_id = interner_.intern(spec.detail);

  Event ev;
  ev.id = binlog_.head() + 1;
  ev.at = at;
  ev.kind = spec.kind;
  ev.entity = spec.entity;
  ev.peer = spec.peer;
  ev.cause = spec.cause != 0 ? spec.cause : current_cause_;
  ev.channel = spec.channel;
  ev.arg = spec.arg;
  ev.detail = interner_.view(detail_id);

  auto& st = state_of(ev.entity);
  ev.seq = ++st.seq;
  const std::uint64_t cause_clock =
      spec.cause_clock != 0 ? spec.cause_clock : lamport_of(ev.cause);
  st.clock = std::max(st.clock, cause_clock) + 1;
  ev.lamport = st.clock;

  binlog_.append(encode(ev, detail_id));
  return ev.id;
}

std::vector<Event> EventStream::snapshot() const {
  std::vector<Event> out;
  const std::size_t n = retained();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(event_at(i));
  return out;
}

Event EventStream::event_at(std::size_t pos) const noexcept {
  const EventId id = binlog_.dropped() + pos + 1;
  const BinRecord& rec = binlog_.record_of(id);
  return decode(rec, id, interner_.view(rec.detail_id));
}

EventStream::EntityState& EventStream::state_of(Entity entity) {
  auto slot = [idx = entity.idx](std::vector<EntityState>& pool) -> EntityState& {
    if (idx >= pool.size()) pool.resize(idx + 1);
    return pool[idx];
  };
  switch (entity.kind) {
    case Entity::Kind::kMss: return slot(mss_state_);
    case Entity::Kind::kMh: return slot(mh_state_);
    case Entity::Kind::kNone: break;
  }
  return none_state_;
}

std::uint64_t EventStream::lamport_of(EventId id) const noexcept {
  // Eviction is oldest-first, so retained ids form the contiguous range
  // [dropped() + 1, emitted()] and mask straight into the ring.
  if (id == 0 || id <= binlog_.dropped() || id > binlog_.head()) return 0;
  return binlog_.record_of(id).lamport;
}

void EventStream::clear() {
  binlog_.clear();
  interner_.clear();
  mss_state_.clear();
  mh_state_.clear();
  none_state_ = EntityState{};
  current_cause_ = 0;
}

// --- export / import --------------------------------------------------------

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {

/// Minimal field scanner for the flat single-line objects event_json
/// produces: finds `"key":` at the top level and returns the raw value
/// text (string values come back without quotes, unescaped).
class FieldReader {
 public:
  explicit FieldReader(std::string_view line) : line_(line) {}

  std::optional<std::string> raw(std::string_view key) const {
    const std::string needle = '"' + std::string(key) + "\":";
    const auto pos = line_.find(needle);
    if (pos == std::string_view::npos) return std::nullopt;
    std::size_t i = pos + needle.size();
    if (i >= line_.size()) return std::nullopt;
    if (line_[i] == '"') {
      std::string out;
      for (++i; i < line_.size(); ++i) {
        const char c = line_[i];
        if (c == '"') return out;
        if (c == '\\' && i + 1 < line_.size()) {
          const char next = line_[++i];
          switch (next) {
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u':
              if (i + 4 < line_.size()) {
                unsigned code = 0;
                const auto* first = line_.data() + i + 1;
                std::from_chars(first, first + 4, code, 16);
                out += static_cast<char>(code);
                i += 4;
              }
              break;
            default: out += next;
          }
        } else {
          out += c;
        }
      }
      return std::nullopt;  // unterminated string
    }
    std::size_t end = i;
    while (end < line_.size() && line_[end] != ',' && line_[end] != '}') ++end;
    return std::string(line_.substr(i, end - i));
  }

  std::optional<std::uint64_t> number(std::string_view key) const {
    const auto text = raw(key);
    if (!text) return std::nullopt;
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text->data(), text->data() + text->size(), value);
    if (ec != std::errc{} || ptr != text->data() + text->size()) return std::nullopt;
    return value;
  }

 private:
  std::string_view line_;
};

}  // namespace

std::string event_json(const Event& event) {
  std::string out;
  out.reserve(160);
  out += "{\"id\":";
  out += std::to_string(event.id);
  out += ",\"t\":";
  out += std::to_string(event.at);
  out += ",\"kind\":\"";
  out += to_string(event.kind);
  out += "\",\"entity\":\"";
  out += to_string(event.entity);
  out += "\",\"peer\":\"";
  out += to_string(event.peer);
  out += "\",\"seq\":";
  out += std::to_string(event.seq);
  out += ",\"lamport\":";
  out += std::to_string(event.lamport);
  out += ",\"cause\":";
  out += std::to_string(event.cause);
  out += ",\"channel\":";
  out += std::to_string(event.channel);
  out += ",\"arg\":";
  out += std::to_string(event.arg);
  out += ",\"detail\":";
  append_json_string(out, event.detail);
  out += '}';
  return out;
}

std::optional<Event> event_from_json(std::string_view line, InternTable& strings) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  const FieldReader fields(line);
  Event ev;
  const auto id = fields.number("id");
  const auto at = fields.number("t");
  const auto kind_text = fields.raw("kind");
  const auto entity_text = fields.raw("entity");
  const auto peer_text = fields.raw("peer");
  const auto seq = fields.number("seq");
  const auto lamport = fields.number("lamport");
  const auto cause = fields.number("cause");
  const auto channel = fields.number("channel");
  const auto arg = fields.number("arg");
  auto detail = fields.raw("detail");
  if (!id || !at || !kind_text || !entity_text || !peer_text || !seq || !lamport ||
      !cause || !channel || !arg || !detail) {
    return std::nullopt;
  }
  const auto kind = parse_kind(*kind_text);
  const auto entity = parse_entity(*entity_text);
  const auto peer = parse_entity(*peer_text);
  if (!kind || !entity || !peer) return std::nullopt;
  ev.id = *id;
  ev.at = *at;
  ev.kind = *kind;
  ev.entity = *entity;
  ev.peer = *peer;
  ev.seq = *seq;
  ev.lamport = *lamport;
  ev.cause = *cause;
  ev.channel = *channel;
  ev.arg = *arg;
  // The unescaped text is a temporary: intern it so the returned view
  // outlives this call (backed by the caller's table).
  ev.detail = strings.view(strings.intern(*detail));
  return ev;
}

std::string to_jsonl(std::span<const Event> events) {
  std::string out;
  for (const auto& ev : events) {
    out += event_json(ev);
    out += '\n';
  }
  return out;
}

std::string to_jsonl(const EventStream& stream) {
  std::string out;
  stream.for_each([&out](const Event& ev) {
    out += event_json(ev);
    out += '\n';
  });
  return out;
}

namespace {

/// Chrome trace "tid": entity index + 1 so track 0 is never used (some
/// viewers hide tid 0).
std::uint32_t chrome_tid(Entity entity) { return entity.idx + 1; }
int chrome_pid(Entity entity) { return entity.kind == Entity::Kind::kMss ? 1 : 2; }

void chrome_event(std::string& out, bool& first, std::string_view body) {
  if (!first) out += ",\n";
  first = false;
  out += body;
}

std::string chrome_common(const Event& ev, char phase, std::string_view name) {
  std::string body = "{\"name\":";
  append_json_string(body, name);
  body += ",\"ph\":\"";
  body += phase;
  body += "\",\"ts\":";
  body += std::to_string(ev.at);
  body += ",\"pid\":";
  body += std::to_string(chrome_pid(ev.entity));
  body += ",\"tid\":";
  body += std::to_string(chrome_tid(ev.entity));
  return body;
}

std::string chrome_args(const Event& ev) {
  std::string args = "\"args\":{\"event_id\":";
  args += std::to_string(ev.id);
  args += ",\"lamport\":";
  args += std::to_string(ev.lamport);
  args += ",\"cause\":";
  args += std::to_string(ev.cause);
  if (ev.peer.valid()) {
    args += ",\"peer\":";
    append_json_string(args, to_string(ev.peer));
  }
  if (ev.arg != 0) {
    args += ",\"arg\":";
    args += std::to_string(ev.arg);
  }
  if (!ev.detail.empty()) {
    args += ",\"detail\":";
    append_json_string(args, ev.detail);
  }
  args += '}';
  return args;
}

}  // namespace

std::string to_chrome_trace(std::span<const Event> events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;

  // Metadata: name the two processes and one thread (track) per entity
  // that appears anywhere in the stream.
  chrome_event(out, first,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"MSS\"}}");
  chrome_event(out, first,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"MH\"}}");
  std::vector<std::uint64_t> named;
  auto name_track = [&](Entity entity) {
    if (!entity.valid()) return;
    if (std::find(named.begin(), named.end(), entity.key()) != named.end()) return;
    named.push_back(entity.key());
    std::string body = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
    body += std::to_string(chrome_pid(entity));
    body += ",\"tid\":";
    body += std::to_string(chrome_tid(entity));
    body += ",\"args\":{\"name\":";
    append_json_string(body, to_string(entity));
    body += "}}";
    chrome_event(out, first, body);
  };
  for (const auto& ev : events) {
    name_track(ev.entity);
    name_track(ev.peer);
  }

  for (const auto& ev : events) {
    switch (ev.kind) {
      case EventKind::kSend:
      case EventKind::kRecv:
        // Per-message flow is too dense for a span view; the JSONL
        // export carries it, Chrome gets the state changes.
        break;
      case EventKind::kCsEnter:
        chrome_event(out, first, chrome_common(ev, 'B', "cs") + ',' + chrome_args(ev) + '}');
        break;
      case EventKind::kCsExit:
        chrome_event(out, first, chrome_common(ev, 'E', "cs") + '}');
        break;
      case EventKind::kTokenArrive:
        chrome_event(out, first,
                     chrome_common(ev, 'B', "token") + ',' + chrome_args(ev) + '}');
        break;
      case EventKind::kTokenDepart:
        chrome_event(out, first, chrome_common(ev, 'E', "token") + '}');
        break;
      case EventKind::kHandoffBegin:
      case EventKind::kHandoffEnd: {
        std::string body =
            chrome_common(ev, ev.kind == EventKind::kHandoffBegin ? 'b' : 'e', "handoff");
        body += ",\"cat\":\"handoff\",\"id\":";
        body += std::to_string(ev.arg);
        if (ev.kind == EventKind::kHandoffBegin) {
          body += ',';
          body += chrome_args(ev);
        }
        body += '}';
        chrome_event(out, first, body);
        break;
      }
      default: {
        std::string body = chrome_common(ev, 'i', to_string(ev.kind));
        body += ",\"s\":\"t\",";
        body += chrome_args(ev);
        body += '}';
        chrome_event(out, first, body);
        break;
      }
    }
  }
  out += "\n]}\n";
  return out;
}

std::string to_chrome_trace(const EventStream& stream) {
  const auto events = stream.snapshot();
  return to_chrome_trace(events);
}

}  // namespace mobidist::obs
