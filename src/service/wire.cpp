#include "service/wire.hpp"

#include <charconv>
#include <functional>
#include <sstream>

#include "obs/trace.hpp"
#include "service/cache.hpp"

namespace prts::service {
namespace {

const char* policy_name(DeadlinePolicy policy) noexcept {
  return policy == DeadlinePolicy::kReject ? "reject" : "downgrade";
}

/// "status <x>" -> x; false when the line does not start with the key.
bool take_field(std::string_view line, std::string_view key,
                std::string_view& value) {
  if (line.size() < key.size() + 1 || line.substr(0, key.size()) != key ||
      line[key.size()] != ' ') {
    return false;
  }
  value = line.substr(key.size() + 1);
  return true;
}

bool take_field(const std::string& line, std::string_view key,
                std::string& value) {
  std::string_view view;
  if (!take_field(std::string_view(line), key, view)) return false;
  value = std::string(view);
  return true;
}

/// std::getline over a string_view: the next line, without its '\n',
/// into `line`; false once `rest` is exhausted. A final line without a
/// newline still counts, exactly as getline reads it.
bool next_line(std::string_view& rest, std::string_view& line) {
  if (rest.empty()) return false;
  const std::size_t newline = rest.find('\n');
  if (newline == std::string_view::npos) {
    line = rest;
    rest = {};
  } else {
    line = rest.substr(0, newline);
    rest.remove_prefix(newline + 1);
  }
  return true;
}

std::optional<ReplyStatus> status_from_name(std::string_view name) {
  for (const ReplyStatus status :
       {ReplyStatus::kSolved, ReplyStatus::kInfeasible,
        ReplyStatus::kRejectedQueue, ReplyStatus::kRejectedDeadline,
        ReplyStatus::kError}) {
    if (name == reply_status_name(status)) return status;
  }
  return std::nullopt;
}

}  // namespace

std::string encode_wire_request(const SolveRequest& request,
                                const std::optional<CanonicalHash>& key) {
  std::ostringstream out;
  out << "prts-solve-request v1\n";
  out << "solver " << request.solver << "\n";
  out << "period " << canonical_number(request.bounds.period_bound) << "\n";
  out << "latency " << canonical_number(request.bounds.latency_bound)
      << "\n";
  out << "deadline " << canonical_number(request.deadline_seconds) << "\n";
  out << "policy " << policy_name(request.deadline_policy) << "\n";
  if (key) out << "key " << to_hex(*key) << "\n";
  if (request.trace_id != 0) {
    out << "trace " << obs::id_to_hex(request.trace_id) << "\n";
  }
  if (request.warm_start && request.warm_start->incumbent) {
    // The incumbent rides as a key-less cache entry line; the floor is
    // recomputed from its metrics on the far side.
    out << "warm "
        << encode_cache_entry(CanonicalHash{},
                              CachedSolution{request.warm_start->incumbent})
        << "\n";
  }
  out << "instance\n";
  write_instance_canonical(out, request.instance);
  return out.str();
}

std::optional<WireRequestHead> decode_wire_request_head(
    std::string_view payload, std::string& error) {
  std::string_view rest = payload;
  std::string_view line;
  std::string_view value;

  const auto bad = [&](std::string what) {
    error = std::move(what);
    return std::nullopt;
  };

  if (!next_line(rest, line) || line != "prts-solve-request v1") {
    return bad("expected header 'prts-solve-request v1'");
  }

  WireRequestHead head;
  if (!next_line(rest, line) || !take_field(line, "solver", value) ||
      value.empty()) {
    return bad("expected 'solver <name>'");
  }
  head.solver = std::string(value);
  if (!next_line(rest, line) || !take_field(line, "period", value) ||
      !parse_canonical_number(value, head.bounds.period_bound)) {
    return bad("expected 'period <number>'");
  }
  if (!next_line(rest, line) || !take_field(line, "latency", value) ||
      !parse_canonical_number(value, head.bounds.latency_bound)) {
    return bad("expected 'latency <number>'");
  }
  if (!next_line(rest, line) || !take_field(line, "deadline", value) ||
      !parse_canonical_number(value, head.deadline_seconds)) {
    return bad("expected 'deadline <number>'");
  }
  if (!next_line(rest, line) || !take_field(line, "policy", value)) {
    return bad("expected 'policy reject|downgrade'");
  }
  if (value == "reject") {
    head.deadline_policy = DeadlinePolicy::kReject;
  } else if (value == "downgrade") {
    head.deadline_policy = DeadlinePolicy::kDowngrade;
  } else {
    return bad("unknown policy '" + std::string(value) + "'");
  }
  // The optional lines joined the v1 format later, in this order; a
  // payload without them still decodes.
  if (!next_line(rest, line)) return bad("expected 'instance'");
  if (take_field(line, "key", value)) {
    head.key = hash_from_hex(value);
    if (!head.key) return bad("malformed key '" + std::string(value) + "'");
    if (!next_line(rest, line)) return bad("expected 'instance'");
  }
  if (take_field(line, "trace", value)) {
    head.trace_id = obs::id_from_hex(value);
    if (head.trace_id == 0) {
      return bad("malformed trace id '" + std::string(value) + "'");
    }
    if (!next_line(rest, line)) return bad("expected 'instance'");
  }
  if (take_field(line, "warm", value)) {
    CanonicalHash ignored_key;
    CachedSolution entry;
    std::string why;
    if (!parse_cache_entry(value, ignored_key, entry, why) ||
        !entry.solution) {
      return bad("warm: " + why);
    }
    head.warm = std::move(entry.solution->mapping);
    if (!next_line(rest, line)) return bad("expected 'instance'");
  }
  if (line != "instance") return bad("expected 'instance'");
  head.instance_text = rest;
  return head;
}

std::optional<SolveRequest> decode_wire_request(WireRequestHead head,
                                                std::string& error) {
  // The instance as a line reader hands it over: every line ends in a
  // newline, the last one included.
  std::string body(head.instance_text);
  if (!body.empty() && body.back() != '\n') body += '\n';
  ParseResult parsed = instance_from_text(body);
  if (!parsed) {
    error = "instance: " + parsed.error;
    return std::nullopt;
  }

  // The hint is advisory and the peer is untrusted: carried metrics are
  // discarded and re-evaluated against the decoded instance, so a
  // fabricated reliability floor can never prune a real optimum (the
  // WarmStart contract holds against lying peers, not just honest
  // ones). A mapping that does not fit the instance drops the hint
  // rather than the request.
  std::optional<solver::WarmStart> warm;
  if (head.warm && !head.warm->validate(parsed.instance->platform) &&
      head.warm->partition().task_count() == parsed.instance->chain.size()) {
    solver::WarmStart hint;
    const MappingMetrics metrics = evaluate(
        parsed.instance->chain, parsed.instance->platform, *head.warm);
    hint.reliability_floor_log = metrics.reliability.log();
    hint.incumbent = solver::Solution{std::move(*head.warm), metrics};
    warm = std::move(hint);
  }
  SolveRequest request{std::move(*parsed.instance), std::move(head.solver),
                       head.bounds, head.deadline_seconds,
                       head.deadline_policy, std::move(warm)};
  request.trace_id = head.trace_id;
  return request;
}

std::optional<SolveRequest> decode_wire_request(std::string_view payload,
                                                std::string& error) {
  auto head = decode_wire_request_head(payload, error);
  if (!head) return std::nullopt;
  return decode_wire_request(std::move(*head), error);
}

std::string encode_wire_reply(const SolveReply& reply) {
  std::ostringstream out;
  out << "prts-solve-reply v1\n";
  out << "status " << reply_status_name(reply.status) << "\n";
  out << "hit " << (reply.cache_hit ? 1 : 0) << "\n";
  out << "near " << (reply.near_miss ? 1 : 0) << "\n";
  out << "down " << (reply.downgraded ? 1 : 0) << "\n";
  out << "solver " << (reply.solver_used.empty() ? "-" : reply.solver_used)
      << "\n";
  out << "cost " << canonical_number(reply.cost_seconds) << "\n";
  if (reply.status == ReplyStatus::kError) {
    out << "error " << reply.error << "\n";
  }
  for (const obs::Span& span : reply.remote_spans) {
    out << "span " << span.rank << " "
        << canonical_number(span.start_seconds) << " "
        << canonical_number(span.duration_seconds) << " " << span.name
        << "\n";
    // Profiler attribution rides as an optional follow-line ('span'
    // carries the name as its tail, so new fields cannot extend it):
    // emitted only when nonzero, so pre-profiler decoders — which error
    // on unknown lines — only see it from ranks that also encode it
    // alongside, and new decoders accept replies without it.
    if (span.cpu_seconds > 0.0 || span.alloc_count > 0 ||
        span.alloc_bytes > 0) {
      out << "spanx " << canonical_number(span.cpu_seconds) << " "
          << span.alloc_count << " " << span.alloc_bytes << "\n";
    }
  }
  if (reply.status == ReplyStatus::kSolved ||
      reply.status == ReplyStatus::kInfeasible) {
    out << "entry "
        << encode_cache_entry(
               reply.key, CachedSolution{reply.solution, reply.cost_seconds})
        << "\n";
  } else {
    out << "key " << to_hex(reply.key) << "\n";
  }
  return out.str();
}

std::optional<SolveReply> decode_wire_reply(std::string_view payload,
                                            std::string& error) {
  std::istringstream in{std::string(payload)};
  std::string line;

  const auto bad = [&](const std::string& what) {
    error = what;
    return std::nullopt;
  };

  if (!std::getline(in, line) || line != "prts-solve-reply v1") {
    error = "expected header 'prts-solve-reply v1'";
    return std::nullopt;
  }

  SolveReply reply;
  std::string value;
  if (!std::getline(in, line) || !take_field(line, "status", value)) {
    return bad("expected 'status <name>'");
  }
  const auto status = status_from_name(value);
  if (!status) return bad("unknown status '" + value + "'");
  reply.status = *status;

  if (!std::getline(in, line) || !take_field(line, "hit", value) ||
      (value != "0" && value != "1")) {
    return bad("expected 'hit 0|1'");
  }
  reply.cache_hit = value == "1";
  // 'near' and 'cost' joined the v1 format later; replies from a rank
  // without them must keep decoding (rolling fabric upgrades), so both
  // are optional in their slots.
  if (!std::getline(in, line)) return bad("expected 'down 0|1'");
  if (take_field(line, "near", value)) {
    if (value != "0" && value != "1") return bad("expected 'near 0|1'");
    reply.near_miss = value == "1";
    if (!std::getline(in, line)) return bad("expected 'down 0|1'");
  }
  if (!take_field(line, "down", value) || (value != "0" && value != "1")) {
    return bad("expected 'down 0|1'");
  }
  reply.downgraded = value == "1";
  if (!std::getline(in, line) || !take_field(line, "solver", value)) {
    return bad("expected 'solver <name>'");
  }
  reply.solver_used = value == "-" ? "" : value;
  if (in.peek() == 'c') {
    if (!std::getline(in, line) || !take_field(line, "cost", value) ||
        !parse_canonical_number(value, reply.cost_seconds)) {
      return bad("expected 'cost <number>'");
    }
  }

  while (std::getline(in, line)) {
    if (take_field(line, "error", value)) {
      reply.error = value;
    } else if (take_field(line, "span", value)) {
      // "<rank> <start> <duration> <name>"; the name is the line tail
      // (span names never contain spaces, but tolerating them is free).
      std::istringstream fields(value);
      obs::Span span;
      std::string start_text;
      std::string duration_text;
      if (!(fields >> span.rank >> start_text >> duration_text) ||
          !parse_canonical_number(start_text, span.start_seconds) ||
          !parse_canonical_number(duration_text, span.duration_seconds)) {
        return bad("malformed span '" + value + "'");
      }
      std::getline(fields >> std::ws, span.name);
      if (span.name.empty()) return bad("span missing name");
      reply.remote_spans.push_back(std::move(span));
    } else if (take_field(line, "spanx", value)) {
      // "<cpu_seconds> <alloc_count> <alloc_bytes>", amending the most
      // recent span. A spanx with no preceding span is tolerated and
      // dropped (never a decode error — the span data is advisory).
      if (reply.remote_spans.empty()) continue;
      obs::Span& span = reply.remote_spans.back();
      std::istringstream fields(value);
      std::string cpu_text;
      double cpu_seconds = 0.0;
      std::uint64_t alloc_count = 0;
      std::uint64_t alloc_bytes = 0;
      if (!(fields >> cpu_text >> alloc_count >> alloc_bytes) ||
          !parse_canonical_number(cpu_text, cpu_seconds)) {
        return bad("malformed spanx '" + value + "'");
      }
      span.cpu_seconds = cpu_seconds;
      span.alloc_count = alloc_count;
      span.alloc_bytes = alloc_bytes;
    } else if (take_field(line, "entry", value)) {
      CachedSolution entry;
      std::string why;
      if (!parse_cache_entry(value, reply.key, entry, why)) {
        return bad("entry: " + why);
      }
      reply.solution = std::move(entry.solution);
    } else if (take_field(line, "key", value)) {
      const auto key = hash_from_hex(value);
      if (!key) return bad("malformed key '" + value + "'");
      reply.key = *key;
    } else if (!line.empty()) {
      return bad("unexpected line '" + line + "'");
    }
  }

  if (reply.status == ReplyStatus::kSolved && !reply.solution) {
    return bad("status solved but no solution entry");
  }
  return reply;
}

// ------------------------------------------------- gossip / replica fetch

namespace {

/// Parses "<header> <count>" then hands each of the following `count`
/// lines to `parse_line`; nullopt-style false with a reason otherwise.
bool read_counted_lines(std::istream& in, std::string_view count_key,
                        std::string& error,
                        const std::function<bool(const std::string&)>&
                            parse_line) {
  std::string line;
  std::string value;
  if (!std::getline(in, line) || !take_field(line, count_key, value)) {
    error = "expected '" + std::string(count_key) + " <n>'";
    return false;
  }
  std::size_t count = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), count);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    error = "malformed count '" + value + "'";
    return false;
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) {
      error = "truncated list (expected " + std::to_string(count) +
              " lines)";
      return false;
    }
    if (!parse_line(line)) return false;
  }
  return true;
}

}  // namespace

std::string encode_gossip_digest(const GossipDigest& digest) {
  std::ostringstream out;
  out << "prts-gossip v1\n";
  out << "rank " << digest.rank << "\n";
  out << "keys " << digest.entries.size() << "\n";
  for (const GossipDigest::Entry& entry : digest.entries) {
    out << to_hex(entry.key) << " " << entry.hits << "\n";
  }
  return out.str();
}

std::optional<GossipDigest> decode_gossip_digest(std::string_view payload,
                                                 std::string& error) {
  std::istringstream in{std::string(payload)};
  std::string line;
  if (!std::getline(in, line) || line != "prts-gossip v1") {
    error = "expected header 'prts-gossip v1'";
    return std::nullopt;
  }
  GossipDigest digest;
  std::string value;
  if (!std::getline(in, line) || !take_field(line, "rank", value)) {
    error = "expected 'rank <r>'";
    return std::nullopt;
  }
  {
    const auto [ptr, ec] = std::from_chars(
        value.data(), value.data() + value.size(), digest.rank);
    if (ec != std::errc{} || ptr != value.data() + value.size()) {
      error = "malformed rank '" + value + "'";
      return std::nullopt;
    }
  }
  const bool ok = read_counted_lines(
      in, "keys", error, [&](const std::string& entry_line) {
        const std::size_t space = entry_line.find(' ');
        if (space == std::string::npos) {
          error = "expected '<hash-hex> <hits>'";
          return false;
        }
        const auto key =
            hash_from_hex(std::string_view(entry_line).substr(0, space));
        if (!key) {
          error = "malformed hash '" + entry_line.substr(0, space) + "'";
          return false;
        }
        GossipDigest::Entry entry;
        entry.key = *key;
        const char* first = entry_line.data() + space + 1;
        const char* last = entry_line.data() + entry_line.size();
        const auto [ptr, ec] = std::from_chars(first, last, entry.hits);
        if (ec != std::errc{} || ptr != last) {
          error = "malformed hit count in '" + entry_line + "'";
          return false;
        }
        digest.entries.push_back(entry);
        return true;
      });
  if (!ok) return std::nullopt;
  return digest;
}

std::string encode_replica_fetch(const std::vector<CanonicalHash>& keys) {
  std::ostringstream out;
  out << "prts-replica-fetch v1\n";
  out << "keys " << keys.size() << "\n";
  for (const CanonicalHash& key : keys) out << to_hex(key) << "\n";
  return out.str();
}

std::optional<std::vector<CanonicalHash>> decode_replica_fetch(
    std::string_view payload, std::string& error) {
  std::istringstream in{std::string(payload)};
  std::string line;
  if (!std::getline(in, line) || line != "prts-replica-fetch v1") {
    error = "expected header 'prts-replica-fetch v1'";
    return std::nullopt;
  }
  std::vector<CanonicalHash> keys;
  const bool ok =
      read_counted_lines(in, "keys", error, [&](const std::string& key_line) {
        const auto key = hash_from_hex(key_line);
        if (!key) {
          error = "malformed hash '" + key_line + "'";
          return false;
        }
        keys.push_back(*key);
        return true;
      });
  if (!ok) return std::nullopt;
  return keys;
}

std::string encode_replica_entries(
    const std::vector<std::pair<CanonicalHash, CachedSolution>>& entries) {
  std::ostringstream out;
  out << "prts-replica-entries v1\n";
  out << "entries " << entries.size() << "\n";
  for (const auto& [key, value] : entries) {
    out << encode_cache_entry(key, value) << "\n";
  }
  return out.str();
}

std::optional<std::vector<std::pair<CanonicalHash, CachedSolution>>>
decode_replica_entries(std::string_view payload, std::string& error) {
  std::istringstream in{std::string(payload)};
  std::string line;
  if (!std::getline(in, line) || line != "prts-replica-entries v1") {
    error = "expected header 'prts-replica-entries v1'";
    return std::nullopt;
  }
  std::vector<std::pair<CanonicalHash, CachedSolution>> entries;
  const bool ok = read_counted_lines(
      in, "entries", error, [&](const std::string& entry_line) {
        CanonicalHash key;
        CachedSolution value;
        std::string why;
        if (!parse_cache_entry(entry_line, key, value, why)) {
          error = "entry: " + why;
          return false;
        }
        entries.emplace_back(key, std::move(value));
        return true;
      });
  if (!ok) return std::nullopt;
  return entries;
}

namespace {

/// "<key> <unsigned>" field; false (with a reason) on malformed digits.
template <typename Unsigned>
bool read_unsigned_field(std::istream& in, std::string_view key,
                         Unsigned& out, std::string& error) {
  std::string line;
  std::string value;
  if (!std::getline(in, line) || !take_field(line, key, value)) {
    error = "expected '" + std::string(key) + " <n>'";
    return false;
  }
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    error = "malformed " + std::string(key) + " '" + value + "'";
    return false;
  }
  return true;
}

/// "<rank> <port> <host>" member line of the membership update codec.
bool parse_member_line(const std::string& line, Member& member,
                       std::string& error) {
  const char* first = line.data();
  const char* last = line.data() + line.size();
  auto [after_rank, rank_ec] = std::from_chars(first, last, member.rank);
  if (rank_ec != std::errc{} || after_rank == last || *after_rank != ' ') {
    error = "expected '<rank> <port> <host>' in '" + line + "'";
    return false;
  }
  auto [after_port, port_ec] =
      std::from_chars(after_rank + 1, last, member.port);
  if (port_ec != std::errc{} || after_port == last || *after_port != ' ') {
    error = "expected '<rank> <port> <host>' in '" + line + "'";
    return false;
  }
  member.host.assign(after_port + 1, last);
  return true;
}

}  // namespace

std::string encode_join_request(const Member& member) {
  std::ostringstream out;
  out << "prts-join v1\n";
  out << "rank " << member.rank << "\n";
  out << "port " << member.port << "\n";
  out << "host " << member.host << "\n";
  return out.str();
}

std::optional<Member> decode_join_request(std::string_view payload,
                                          std::string& error) {
  std::istringstream in{std::string(payload)};
  std::string line;
  if (!std::getline(in, line) || line != "prts-join v1") {
    error = "expected header 'prts-join v1'";
    return std::nullopt;
  }
  Member member;
  if (!read_unsigned_field(in, "rank", member.rank, error)) return std::nullopt;
  if (!read_unsigned_field(in, "port", member.port, error)) return std::nullopt;
  std::string value;
  if (!std::getline(in, line) || !take_field(line, "host", value)) {
    error = "expected 'host <h>'";
    return std::nullopt;
  }
  member.host = value;
  return member;
}

std::string encode_membership_update(const MembershipUpdate& update) {
  std::ostringstream out;
  out << "prts-membership v1\n";
  out << "from " << update.from << "\n";
  out << "epoch " << update.view.epoch << "\n";
  out << "members " << update.view.members.size() << "\n";
  for (const Member& member : update.view.members) {
    out << member.rank << " " << member.port << " " << member.host << "\n";
  }
  return out.str();
}

std::optional<MembershipUpdate> decode_membership_update(
    std::string_view payload, std::string& error) {
  std::istringstream in{std::string(payload)};
  std::string line;
  if (!std::getline(in, line) || line != "prts-membership v1") {
    error = "expected header 'prts-membership v1'";
    return std::nullopt;
  }
  MembershipUpdate update;
  if (!read_unsigned_field(in, "from", update.from, error)) {
    return std::nullopt;
  }
  if (!read_unsigned_field(in, "epoch", update.view.epoch, error)) {
    return std::nullopt;
  }
  const bool ok = read_counted_lines(
      in, "members", error, [&](const std::string& member_line) {
        Member member;
        if (!parse_member_line(member_line, member, error)) return false;
        update.view.members.push_back(std::move(member));
        return true;
      });
  if (!ok) return std::nullopt;
  return update;
}

namespace {

std::string encode_handoff_stamp(const char* header,
                                 const HandoffStamp& stamp) {
  std::ostringstream out;
  out << header << "\n";
  out << "epoch " << stamp.epoch << "\n";
  out << "from " << stamp.from << "\n";
  out << "entries " << stamp.entries << "\n";
  return out.str();
}

}  // namespace

std::string encode_handoff_begin(const HandoffStamp& stamp) {
  return encode_handoff_stamp("prts-handoff-begin v1", stamp);
}

std::string encode_handoff_done(const HandoffStamp& stamp) {
  return encode_handoff_stamp("prts-handoff-done v1", stamp);
}

std::optional<HandoffStamp> decode_handoff_stamp(std::string_view payload,
                                                 std::string& error) {
  std::istringstream in{std::string(payload)};
  std::string line;
  if (!std::getline(in, line) || (line != "prts-handoff-begin v1" &&
                                  line != "prts-handoff-done v1")) {
    error = "expected a handoff begin/done header";
    return std::nullopt;
  }
  HandoffStamp stamp;
  if (!read_unsigned_field(in, "epoch", stamp.epoch, error) ||
      !read_unsigned_field(in, "from", stamp.from, error) ||
      !read_unsigned_field(in, "entries", stamp.entries, error)) {
    return std::nullopt;
  }
  return stamp;
}

std::string encode_handoff_chunk(const HandoffChunk& chunk) {
  std::ostringstream out;
  out << "prts-handoff-chunk v1\n";
  out << "epoch " << chunk.epoch << "\n";
  out << "from " << chunk.from << "\n";
  out << "entries " << chunk.entries.size() << "\n";
  for (const auto& [key, value] : chunk.entries) {
    out << encode_cache_entry(key, value) << "\n";
  }
  return out.str();
}

std::optional<HandoffChunk> decode_handoff_chunk(std::string_view payload,
                                                 std::string& error) {
  std::istringstream in{std::string(payload)};
  std::string line;
  if (!std::getline(in, line) || line != "prts-handoff-chunk v1") {
    error = "expected header 'prts-handoff-chunk v1'";
    return std::nullopt;
  }
  HandoffChunk chunk;
  if (!read_unsigned_field(in, "epoch", chunk.epoch, error) ||
      !read_unsigned_field(in, "from", chunk.from, error)) {
    return std::nullopt;
  }
  const bool ok = read_counted_lines(
      in, "entries", error, [&](const std::string& entry_line) {
        CanonicalHash key;
        CachedSolution value;
        std::string why;
        if (!parse_cache_entry(entry_line, key, value, why)) {
          error = "entry: " + why;
          return false;
        }
        chunk.entries.emplace_back(key, std::move(value));
        return true;
      });
  if (!ok) return std::nullopt;
  return chunk;
}

}  // namespace prts::service
