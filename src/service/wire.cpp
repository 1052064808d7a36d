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

/// Appends obs::id_to_hex(id): 16 lowercase hex digits.
void append_trace_id(std::string& out, std::uint64_t id) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kDigits[(id >> shift) & 0xF];
  }
}

/// Splits the first `count` fields of `text`, each ended by exactly one
/// space, off into `fields`; `text` keeps the tail. False when a field
/// is empty (a run of spaces) or a space is missing.
bool take_space_fields(std::string_view& text, std::string_view* fields,
                       std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t space = text.find(' ');
    if (space == 0 || space == std::string_view::npos) return false;
    fields[i] = text.substr(0, space);
    text.remove_prefix(space + 1);
  }
  return true;
}

/// "<rank> <start> <duration> <name>", one space apart; the name is the
/// non-empty tail of the line.
bool parse_span(std::string_view value, obs::Span& span) {
  std::string_view fields[3];
  if (!take_space_fields(value, fields, 3) || value.empty() ||
      value.front() == ' ' || !parse_canonical_integer(fields[0], span.rank) ||
      !parse_canonical_number(fields[1], span.start_seconds) ||
      !parse_canonical_number(fields[2], span.duration_seconds)) {
    return false;
  }
  span.name = std::string(value);
  return true;
}

/// "<cpu_seconds> <alloc_count> <alloc_bytes>" into `span`.
bool parse_spanx(std::string_view value, obs::Span& span) {
  std::string_view fields[2];
  double cpu_seconds = 0.0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
  if (!take_space_fields(value, fields, 2) ||
      !parse_canonical_number(fields[0], cpu_seconds) ||
      !parse_canonical_integer(fields[1], alloc_count) ||
      !parse_canonical_integer(value, alloc_bytes)) {
    return false;
  }
  span.cpu_seconds = cpu_seconds;
  span.alloc_count = alloc_count;
  span.alloc_bytes = alloc_bytes;
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
  std::string out;
  out.reserve(512);
  out += "prts-solve-request v1\nsolver ";
  out += request.solver;
  out += "\nperiod ";
  append_canonical_number(out, request.bounds.period_bound);
  out += "\nlatency ";
  append_canonical_number(out, request.bounds.latency_bound);
  out += "\ndeadline ";
  append_canonical_number(out, request.deadline_seconds);
  out += "\npolicy ";
  out += policy_name(request.deadline_policy);
  out += '\n';
  if (key) {
    out += "key ";
    append_hex(out, *key);
    out += '\n';
  }
  if (request.trace_id != 0) {
    out += "trace ";
    append_trace_id(out, request.trace_id);
    out += '\n';
  }
  if (request.warm_start && request.warm_start->incumbent) {
    // The incumbent rides as a key-less cache entry line; the floor is
    // recomputed from its metrics on the far side.
    out += "warm ";
    append_cache_entry(out, CanonicalHash{},
                       CachedSolution{request.warm_start->incumbent});
    out += '\n';
  }
  out += "instance\n";
  append_instance_canonical(out, request.instance);
  return out;
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
  // The optional lines, in the order the encoder writes them; it omits
  // each one it has nothing to carry in.
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
  const auto flag = [](bool value) { return value ? '1' : '0'; };
  std::string out;
  out.reserve(256 + 64 * reply.remote_spans.size());
  out += "prts-solve-reply v1\nstatus ";
  out += reply_status_name(reply.status);
  out += "\nhit ";
  out += flag(reply.cache_hit);
  out += "\nnear ";
  out += flag(reply.near_miss);
  out += "\ndown ";
  out += flag(reply.downgraded);
  out += "\nsolver ";
  out += reply.solver_used.empty() ? std::string_view("-")
                                   : std::string_view(reply.solver_used);
  out += "\ncost ";
  append_canonical_number(out, reply.cost_seconds);
  out += '\n';
  if (reply.status == ReplyStatus::kError) {
    out += "error ";
    out += reply.error;
    out += '\n';
  }
  for (const obs::Span& span : reply.remote_spans) {
    out += "span ";
    append_integer(out, span.rank);
    out += ' ';
    append_canonical_number(out, span.start_seconds);
    out += ' ';
    append_canonical_number(out, span.duration_seconds);
    out += ' ';
    out += span.name;
    out += '\n';
    // Profiler attribution rides as an optional follow-line ('span'
    // carries the name as its tail, so new fields cannot extend it),
    // emitted only when nonzero.
    if (span.cpu_seconds > 0.0 || span.alloc_count > 0 ||
        span.alloc_bytes > 0) {
      out += "spanx ";
      append_canonical_number(out, span.cpu_seconds);
      out += ' ';
      append_integer(out, span.alloc_count);
      out += ' ';
      append_integer(out, span.alloc_bytes);
      out += '\n';
    }
  }
  if (reply.status == ReplyStatus::kSolved ||
      reply.status == ReplyStatus::kInfeasible) {
    out += "entry ";
    append_cache_entry(out, reply.key,
                       CachedSolution{reply.solution, reply.cost_seconds});
  } else {
    out += "key ";
    append_hex(out, reply.key);
  }
  out += '\n';
  return out;
}

std::optional<SolveReply> decode_wire_reply(std::string_view payload,
                                            std::string& error) {
  std::string_view rest = payload;
  std::string_view line;
  std::string_view value;

  const auto bad = [&](std::string what) {
    error = std::move(what);
    return std::nullopt;
  };

  if (!next_line(rest, line) || line != "prts-solve-reply v1") {
    return bad("expected header 'prts-solve-reply v1'");
  }
  // Every line the encoder writes ends in a newline, the last included.
  if (payload.back() != '\n') return bad("truncated reply");

  SolveReply reply;
  if (!next_line(rest, line) || !take_field(line, "status", value)) {
    return bad("expected 'status <name>'");
  }
  const auto status = status_from_name(value);
  if (!status) return bad("unknown status '" + std::string(value) + "'");
  reply.status = *status;

  const auto read_flag = [&](std::string_view key, bool& flag) {
    if (!next_line(rest, line) || !take_field(line, key, value) ||
        (value != "0" && value != "1")) {
      error = "expected '" + std::string(key) + " 0|1'";
      return false;
    }
    flag = value == "1";
    return true;
  };
  if (!read_flag("hit", reply.cache_hit) ||
      !read_flag("near", reply.near_miss) ||
      !read_flag("down", reply.downgraded)) {
    return std::nullopt;
  }
  if (!next_line(rest, line) || !take_field(line, "solver", value)) {
    return bad("expected 'solver <name>'");
  }
  if (value != "-") reply.solver_used = std::string(value);
  if (!next_line(rest, line) || !take_field(line, "cost", value) ||
      !parse_canonical_number(value, reply.cost_seconds)) {
    return bad("expected 'cost <number>'");
  }

  // The rest in the encoder's order, each line exactly as it writes
  // it: `error` for an error status only, then `span` lines, each
  // followed by at most one `spanx`, then the one closing line — and
  // nothing after it. Anything else would decode to a reply that
  // re-encodes to other bytes.
  if (reply.status == ReplyStatus::kError) {
    if (!next_line(rest, line) || !take_field(line, "error", value)) {
      return bad("expected 'error <message>'");
    }
    reply.error = std::string(value);
  }
  const bool answered = reply.status == ReplyStatus::kSolved ||
                        reply.status == ReplyStatus::kInfeasible;
  const char* const closing = answered ? "entry" : "key";
  const auto expect_more = [&] {
    if (next_line(rest, line)) return true;
    error = "expected '" + std::string(closing) + "' line";
    return false;
  };
  if (!expect_more()) return std::nullopt;
  while (take_field(line, "span", value)) {
    obs::Span span;
    if (!parse_span(value, span)) {
      return bad("malformed span '" + std::string(value) + "'");
    }
    if (!expect_more()) return std::nullopt;
    if (take_field(line, "spanx", value)) {
      // The encoder writes a spanx only when it carries something.
      if (!parse_spanx(value, span) ||
          (span.cpu_seconds == 0.0 && span.alloc_count == 0 &&
           span.alloc_bytes == 0)) {
        return bad("malformed spanx '" + std::string(value) + "'");
      }
      if (!expect_more()) return std::nullopt;
    }
    reply.remote_spans.push_back(std::move(span));
  }
  if (answered) {
    CachedSolution entry;
    std::string why;
    if (!take_field(line, "entry", value)) {
      return bad("expected 'entry' line, got '" + std::string(line) + "'");
    }
    if (!parse_cache_entry(value, reply.key, entry, why)) {
      return bad("entry: " + why);
    }
    if (entry.solution.has_value() !=
        (reply.status == ReplyStatus::kSolved)) {
      return bad(reply.status == ReplyStatus::kSolved
                     ? "status solved but no solution entry"
                     : "status infeasible but a solution entry");
    }
    if (entry.cost_seconds != reply.cost_seconds || entry.indexable()) {
      return bad("entry cost or metadata differs from what the reply carries");
    }
    reply.solution = std::move(entry.solution);
  } else {
    if (!take_field(line, "key", value)) {
      return bad("expected 'key' line, got '" + std::string(line) + "'");
    }
    const auto key = hash_from_hex(value);
    if (!key) return bad("malformed key '" + std::string(value) + "'");
    reply.key = *key;
  }
  if (!rest.empty()) return bad("bytes after the closing line");
  return reply;
}

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
  if (!parse_canonical_integer(value, count)) {
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
  if (!parse_canonical_integer(value, out)) {
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

std::string encode_entries(const EntryBatch& batch) {
  std::string out = "prts-entries v1\nfrom ";
  append_integer(out, batch.from);
  out += "\nentries ";
  append_integer(out, batch.entries.size());
  out += '\n';
  for (const auto& [key, value] : batch.entries) {
    append_cache_entry(out, key, value);
    out += '\n';
  }
  return out;
}

std::optional<EntryBatch> decode_entries(std::string_view payload,
                                         std::string& error) {
  // Every line the encoder writes ends in a newline, so a line without
  // one is a truncated payload; nothing may follow the last entry.
  std::string_view rest = payload;
  std::string_view line;
  const auto take_line = [&] {
    const std::size_t newline = rest.find('\n');
    if (newline == std::string_view::npos) return false;
    line = rest.substr(0, newline);
    rest.remove_prefix(newline + 1);
    return true;
  };
  const auto take_number = [&](std::string_view key, std::size_t& out) {
    std::string_view value;
    return take_line() && take_field(line, key, value) &&
           parse_canonical_integer(value, out);
  };

  EntryBatch batch;
  std::size_t count = 0;
  if (!take_line() || line != "prts-entries v1") {
    error = "expected header 'prts-entries v1'";
    return std::nullopt;
  }
  if (!take_number("from", batch.from)) {
    error = "expected 'from <rank>'";
    return std::nullopt;
  }
  if (!take_number("entries", count)) {
    error = "expected 'entries <n>'";
    return std::nullopt;
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (!take_line()) {
      error = "truncated at entry " + std::to_string(i) + " of " +
              std::to_string(count);
      return std::nullopt;
    }
    CanonicalHash key;
    CachedSolution value;
    std::string why;
    if (!parse_cache_entry(line, key, value, why)) {
      error = "entry " + std::to_string(i) + ": " + why;
      return std::nullopt;
    }
    batch.entries.emplace_back(key, std::move(value));
  }
  if (!rest.empty()) {
    error = "unexpected bytes after the last entry";
    return std::nullopt;
  }
  return batch;
}

}  // namespace prts::service
