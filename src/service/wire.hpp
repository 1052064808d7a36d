// Wire serialization of solve requests and replies for the fabric's
// framed transport (src/net/): line-oriented text payloads reusing the
// canonical instance form of model/serialize.hpp and the cache entry
// codec of service/cache.hpp, so every double survives the network
// bit-exactly and a forwarded solve replays byte-identical metrics.
// A decoder requires every line its encoder always writes, in order:
// the lines marked optional below are exactly those it may omit.
//
// Request payload:
//   prts-solve-request v1
//   solver <name>
//   period <canonical_number|inf>
//   latency <canonical_number|inf>
//   deadline <canonical_number|inf>
//   policy reject|downgrade
//   key <hash-hex>             (optional: the sender's request_key of
//                               the canonical instance below — an
//                               owner answers an exact hit by it from
//                               the header alone, and checks it against
//                               the instance on a miss)
//   trace <hex16>              (optional: the origin's trace id; the
//                               owner records its spans under it so the
//                               forwarded solve stays ONE trace)
//   warm <encode_cache_entry>  (optional: the requester's best local
//                               near-miss incumbent, canonical labels;
//                               its key field is ignored)
//   instance
//   <write_instance_canonical text>
//
// Reply payload:
//   prts-solve-reply v1
//   status <reply_status_name>
//   hit 0|1
//   near 0|1
//   down 0|1
//   solver <name|->
//   cost <canonical_number>    (recorded solve cost; feeds the
//                               requester's adaptive replica TTL)
//   error <message>            (only when status == error)
//   span <rank> <start> <dur> <name>
//                              (0+ lines: the answering rank's trace
//                               spans, offsets from ITS submit point;
//                               the origin shifts and merges them)
//   entry <encode_cache_entry> (only when a solution/infeasible answer
//                               is present; carries key + solution)
//   key <hash-hex>             (only when no entry line is present)
//
// Entries payload (kEntries; every cache entry one rank ships to
// another: a handoff chunk, a double-write, a gossip push):
//   prts-entries v1
//   from <sender rank>
//   entries <n>
//   <encode_cache_entry>       x n
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/engine.hpp"
#include "service/membership.hpp"

namespace prts::service {

/// `key`, when given, rides as the `key` line; it must be the
/// request_key of canonicalize(request.instance).
std::string encode_wire_request(
    const SolveRequest& request,
    const std::optional<CanonicalHash>& key = std::nullopt);

/// A request payload's header: every line before the instance text.
struct WireRequestHead {
  std::string solver;
  solver::Bounds bounds;
  double deadline_seconds = 0.0;
  DeadlinePolicy deadline_policy = DeadlinePolicy::kDowngrade;
  std::optional<CanonicalHash> key;  ///< the sender's claim, unverified
  std::uint64_t trace_id = 0;
  /// The warm hint's incumbent as carried (canonical labels), not yet
  /// checked against the instance.
  std::optional<Mapping> warm;
  /// Everything after the `instance` line: a view into the payload.
  std::string_view instance_text;
};

/// Parses the header alone, reading lines in place; nullopt when any
/// header line is malformed (`error` names the first). The instance
/// text is not read — a truncated or absent one still decodes here.
std::optional<WireRequestHead> decode_wire_request_head(
    std::string_view payload, std::string& error);

/// Completes a decoded head: parses its instance text and checks the
/// warm hint against it. The head's payload must still be alive.
std::optional<SolveRequest> decode_wire_request(WireRequestHead head,
                                                std::string& error);

/// Both steps: nullopt on malformed payloads (wrong header, bad
/// numbers, bad instance text); `error` names the first offending
/// line. The key line, if any, is parsed and not returned.
std::optional<SolveRequest> decode_wire_request(std::string_view payload,
                                                std::string& error);

std::string encode_wire_reply(const SolveReply& reply);

std::optional<SolveReply> decode_wire_reply(std::string_view payload,
                                            std::string& error);

// Membership codecs (kJoinRequest / kMembershipUpdate):
//
//   prts-join v1
//   rank <r>
//   port <p>
//   host <h>
//
//   prts-membership v1
//   from <sender rank>
//   epoch <e>
//   members <n>
//   <rank> <port> <host>       x n  (host last: it is the only field
//                                    that could ever hold a space)

std::string encode_join_request(const Member& member);

std::optional<Member> decode_join_request(std::string_view payload,
                                          std::string& error);

/// A full epoch-stamped view plus who sent it (the receiver refreshes
/// the sender's heartbeat from `from`).
struct MembershipUpdate {
  std::size_t from = 0;
  MembershipView view;
};

std::string encode_membership_update(const MembershipUpdate& update);

std::optional<MembershipUpdate> decode_membership_update(
    std::string_view payload, std::string& error);

/// The cache entries of one kEntries frame and the rank that sent them.
struct EntryBatch {
  std::size_t from = 0;
  std::vector<std::pair<CanonicalHash, CachedSolution>> entries;
};

std::string encode_entries(const EntryBatch& batch);

std::optional<EntryBatch> decode_entries(std::string_view payload,
                                         std::string& error);

}  // namespace prts::service
