#include "service/wire.hpp"

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

/// The one line reader of every decoder here: the next line of `rest`,
/// without its '\n', into `line`. Every line an encoder writes ends in
/// a newline, so a line without one is a truncated payload: false for
/// it, as for an exhausted `rest`.
bool next_line(std::string_view& rest, std::string_view& line) {
  const std::size_t newline = rest.find('\n');
  if (newline == std::string_view::npos) return false;
  line = rest.substr(0, newline);
  rest.remove_prefix(newline + 1);
  return true;
}

/// The next line as "<key> <n>", n spelled as append_integer writes it.
template <typename Integer>
bool take_integer(std::string_view& rest, std::string_view key,
                  Integer& value) {
  std::string_view line;
  std::string_view text;
  return next_line(rest, line) && take_field(line, key, text) &&
         parse_canonical_integer(text, value);
}

/// "<rank> <port> <host>", the member line of the membership update
/// codec: both numbers canonical, the host the rest of the line.
bool parse_member_line(std::string_view line, Member& member) {
  std::string_view fields[2];
  if (!take_space_fields(line, fields, 2) ||
      !parse_canonical_integer(fields[0], member.rank) ||
      !parse_canonical_integer(fields[1], member.port)) {
    return false;
  }
  member.host = std::string(line);
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
  SolveRequest request{std::move(*parsed.instance), std::move(head.solver),
                       head.bounds, head.deadline_seconds,
                       head.deadline_policy};
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

std::string encode_join_request(const Member& member) {
  std::string out = "prts-join v1\nrank ";
  append_integer(out, member.rank);
  out += "\nport ";
  append_integer(out, member.port);
  out += "\nhost ";
  out += member.host;
  out += '\n';
  return out;
}

std::optional<Member> decode_join_request(std::string_view payload,
                                          std::string& error) {
  std::string_view rest = payload;
  std::string_view line;
  std::string_view value;
  const auto bad = [&](std::string what) {
    error = std::move(what);
    return std::nullopt;
  };

  Member member;
  if (!next_line(rest, line) || line != "prts-join v1") {
    return bad("expected header 'prts-join v1'");
  }
  if (!take_integer(rest, "rank", member.rank)) {
    return bad("expected 'rank <n>'");
  }
  if (!take_integer(rest, "port", member.port)) {
    return bad("expected 'port <n>'");
  }
  if (!next_line(rest, line) || !take_field(line, "host", value)) {
    return bad("expected 'host <h>'");
  }
  member.host = std::string(value);
  if (!rest.empty()) return bad("unexpected bytes after the host line");
  return member;
}

std::string encode_membership_update(const MembershipUpdate& update) {
  std::string out = "prts-membership v1\nfrom ";
  append_integer(out, update.from);
  out += "\nepoch ";
  append_integer(out, update.view.epoch);
  out += "\nmembers ";
  append_integer(out, update.view.members.size());
  out += '\n';
  for (const Member& member : update.view.members) {
    append_integer(out, member.rank);
    out += ' ';
    append_integer(out, member.port);
    out += ' ';
    out += member.host;
    out += '\n';
  }
  return out;
}

std::optional<MembershipUpdate> decode_membership_update(
    std::string_view payload, std::string& error) {
  std::string_view rest = payload;
  std::string_view line;
  const auto bad = [&](std::string what) {
    error = std::move(what);
    return std::nullopt;
  };

  MembershipUpdate update;
  std::size_t count = 0;
  if (!next_line(rest, line) || line != "prts-membership v1") {
    return bad("expected header 'prts-membership v1'");
  }
  if (!take_integer(rest, "from", update.from)) {
    return bad("expected 'from <rank>'");
  }
  if (!take_integer(rest, "epoch", update.view.epoch)) {
    return bad("expected 'epoch <e>'");
  }
  if (!take_integer(rest, "members", count)) {
    return bad("expected 'members <n>'");
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (!next_line(rest, line)) {
      return bad("truncated at member " + std::to_string(i) + " of " +
                 std::to_string(count));
    }
    Member member;
    if (!parse_member_line(line, member)) {
      return bad("expected '<rank> <port> <host>' in '" + std::string(line) +
                 "'");
    }
    // The encoder writes a view, whose members are sorted by rank.
    if (i > 0 && member.rank <= update.view.members.back().rank) {
      return bad("member ranks not strictly increasing at '" +
                 std::string(line) + "'");
    }
    update.view.members.push_back(std::move(member));
  }
  if (!rest.empty()) return bad("unexpected bytes after the last member");
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
  std::string_view rest = payload;
  std::string_view line;
  const auto bad = [&](std::string what) {
    error = std::move(what);
    return std::nullopt;
  };

  EntryBatch batch;
  std::size_t count = 0;
  if (!next_line(rest, line) || line != "prts-entries v1") {
    return bad("expected header 'prts-entries v1'");
  }
  if (!take_integer(rest, "from", batch.from)) {
    return bad("expected 'from <rank>'");
  }
  if (!take_integer(rest, "entries", count)) {
    return bad("expected 'entries <n>'");
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (!next_line(rest, line)) {
      return bad("truncated at entry " + std::to_string(i) + " of " +
                 std::to_string(count));
    }
    CanonicalHash key;
    CachedSolution value;
    std::string why;
    if (!parse_cache_entry(line, key, value, why)) {
      return bad("entry " + std::to_string(i) + ": " + why);
    }
    batch.entries.emplace_back(key, std::move(value));
  }
  if (!rest.empty()) return bad("unexpected bytes after the last entry");
  return batch;
}

}  // namespace prts::service
