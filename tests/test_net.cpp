// The fabric transport: frame codec round trips, incremental decoding,
// and the robustness contract — malformed magic, truncated frames,
// oversized payloads, version mismatches and mid-stream disconnects
// produce clean errors on live sockets, never crashes or hangs.
#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "net/frame_server.hpp"
#include "net/mux_client.hpp"
#include "net/socket.hpp"

namespace prts::net {
namespace {

Frame make_frame(FrameType type, std::string payload) {
  Frame frame;
  frame.type = type;
  frame.payload = std::move(payload);
  return frame;
}

// ---------------------------------------------------------- frame codec

TEST(FrameCodec, EncodeDecodeRoundTrip) {
  const Frame frame = make_frame(FrameType::kSolveRequest, "hello fabric");
  const std::string bytes = encode_frame(frame);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + frame.payload.size());

  const DecodeResult decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::kFrame);
  EXPECT_EQ(decoded.frame.type, FrameType::kSolveRequest);
  EXPECT_EQ(decoded.frame.payload, "hello fabric");
  EXPECT_EQ(decoded.consumed, bytes.size());
}

TEST(FrameCodec, EmptyPayloadRoundTrips) {
  const std::string bytes = encode_frame(make_frame(FrameType::kPing, ""));
  const DecodeResult decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::kFrame);
  EXPECT_TRUE(decoded.frame.payload.empty());
}

TEST(FrameCodec, TruncatedInputNeedsMore) {
  const std::string bytes =
      encode_frame(make_frame(FrameType::kSolveReply, "payload"));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const DecodeResult decoded =
        decode_frame(std::string_view(bytes).substr(0, cut));
    EXPECT_EQ(decoded.status, DecodeStatus::kNeedMore) << "cut=" << cut;
    EXPECT_EQ(decoded.consumed, 0u);
  }
}

TEST(FrameCodec, BadMagicIsRejected) {
  std::string bytes = encode_frame(make_frame(FrameType::kPing, "x"));
  bytes[0] = 'X';
  EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::kBadMagic);
}

TEST(FrameCodec, VersionMismatchIsRejected) {
  // Every version byte but kProtocolVersion is rejected — the retired
  // v1, v2 and v3 (whose keys hashed the canonical text) as much as a
  // future v5 — and on the 12-byte prefix alone, before the id bytes
  // arrive.
  std::string bytes = encode_frame(make_frame(FrameType::kPing, "x"));
  for (const char version : {'\x01', '\x02', '\x03', '\x05'}) {
    bytes[4] = version;
    EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::kBadVersion);
    EXPECT_EQ(decode_frame(std::string_view(bytes).substr(0, 12)).status,
              DecodeStatus::kBadVersion);
  }
}

TEST(FrameCodec, RoundTripPreservesRequestId) {
  Frame frame = make_frame(FrameType::kSolveRequest, "pipelined");
  frame.request_id = 0x123456789abcull;  // all six id bytes exercised
  const std::string bytes = encode_frame(frame);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + frame.payload.size());

  const DecodeResult decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::kFrame);
  EXPECT_EQ(decoded.frame.request_id, 0x123456789abcull);
  EXPECT_EQ(decoded.frame.payload, "pipelined");
  EXPECT_EQ(decoded.consumed, bytes.size());
}

TEST(FrameCodec, MaxAndZeroRequestIdsRoundTrip) {
  for (const std::uint64_t id : {std::uint64_t{0}, kMaxRequestId}) {
    Frame frame = make_frame(FrameType::kPong, "");
    frame.request_id = id;
    const DecodeResult decoded = decode_frame(encode_frame(frame));
    ASSERT_EQ(decoded.status, DecodeStatus::kFrame);
    EXPECT_EQ(decoded.frame.request_id, id);
  }
}

TEST(FrameCodec, OversizedLengthIsRejectedNotAllocated) {
  Frame frame = make_frame(FrameType::kPing, "small");
  std::string bytes = encode_frame(frame);
  // Rewrite the length field to claim ~4 GiB.
  bytes[8] = static_cast<char>(0xff);
  bytes[9] = static_cast<char>(0xff);
  bytes[10] = static_cast<char>(0xff);
  bytes[11] = static_cast<char>(0xf0);
  EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::kOversized);
  // A small cap applies to honest frames too.
  EXPECT_EQ(decode_frame(encode_frame(frame), 3).status,
            DecodeStatus::kOversized);
}

// -------------------------------------------- incremental decoder soak

/// Runs `stream` through a FrameDecoder in the given chunking,
/// collecting every decoded frame; fails the test on any error verdict.
void decode_chunked(const std::string& stream,
                    const std::vector<std::size_t>& cuts,
                    std::vector<Frame>& frames) {
  FrameDecoder decoder;
  const auto drain = [&] {
    for (;;) {
      const DecodeResult result = decoder.next();
      if (result.status == DecodeStatus::kNeedMore) return true;
      if (result.status != DecodeStatus::kFrame) return false;
      frames.push_back(result.frame);
    }
  };
  std::size_t start = 0;
  for (const std::size_t cut : cuts) {
    decoder.feed(std::string_view(stream).substr(start, cut - start));
    ASSERT_TRUE(drain()) << "error verdict after feeding [0, " << cut << ")";
    start = cut;
  }
  decoder.feed(std::string_view(stream).substr(start));
  ASSERT_TRUE(drain()) << "error verdict after the final chunk";
  EXPECT_EQ(decoder.buffered(), 0u);
}

void expect_same_frames(const std::vector<Frame>& decoded,
                        const std::vector<Frame>& sent) {
  ASSERT_EQ(decoded.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(decoded[i].type, sent[i].type) << "frame " << i;
    EXPECT_EQ(decoded[i].request_id, sent[i].request_id) << "frame " << i;
    EXPECT_EQ(decoded[i].payload, sent[i].payload) << "frame " << i;
  }
}

TEST(FrameDecoderProperty, EverySplitPointOfATwoFrameStreamDecodesTheSame) {
  Frame second = make_frame(FrameType::kPong, "");
  second.request_id = 0xabcdef012345ull;  // id bytes split across cuts too
  const std::vector<Frame> sent{
      make_frame(FrameType::kSolveRequest, "first payload"),
      second,
  };
  std::string stream;
  for (const Frame& frame : sent) stream += encode_frame(frame);

  // Exhaustive: deliver the stream as [0, cut) + [cut, end) for every
  // cut — header split mid-magic, mid-length, payload split, frame
  // boundary, everything.
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    std::vector<Frame> decoded;
    decode_chunked(stream, {cut}, decoded);
    if (::testing::Test::HasFatalFailure()) FAIL() << "cut=" << cut;
    expect_same_frames(decoded, sent);
  }
}

TEST(FrameDecoderProperty, RandomChunkingsOfARandomStreamAreInvariant) {
  // Seeded generator: the soak is randomized but reproducible.
  prts::Rng rng(20260726);
  for (int round = 0; round < 50; ++round) {
    // A random valid stream: 1..8 frames, payloads 0..300 bytes of
    // arbitrary octets (framing must not care about payload content),
    // request ids random or the unsolicited 0.
    std::vector<Frame> sent;
    const std::size_t frame_count =
        static_cast<std::size_t>(rng.uniform_int(1, 8));
    for (std::size_t f = 0; f < frame_count; ++f) {
      Frame frame;
      frame.type = static_cast<FrameType>(rng.uniform_int(0, 9));
      if (rng.uniform_int(0, 1) == 1) {
        frame.request_id = static_cast<std::uint64_t>(
            rng.uniform_int(0, std::numeric_limits<std::int64_t>::max()) &
            static_cast<std::int64_t>(kMaxRequestId));
      }
      std::string payload(
          static_cast<std::size_t>(rng.uniform_int(0, 300)), '\0');
      for (char& byte : payload) {
        byte = static_cast<char>(rng.uniform_int(0, 255));
      }
      frame.payload = std::move(payload);
      sent.push_back(std::move(frame));
    }
    std::string stream;
    for (const Frame& frame : sent) stream += encode_frame(frame);

    // Random cut set: from byte-at-a-time dribble to one coalesced
    // delivery.
    std::vector<std::size_t> cuts;
    const std::size_t cut_count =
        static_cast<std::size_t>(rng.uniform_int(0, 12));
    for (std::size_t c = 0; c < cut_count; ++c) {
      cuts.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(stream.size()))));
    }
    std::sort(cuts.begin(), cuts.end());

    std::vector<Frame> decoded;
    decode_chunked(stream, cuts, decoded);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "round=" << round;
    }
    expect_same_frames(decoded, sent);
  }
}

TEST(FrameDecoderProperty, ByteAtATimeDribbleDecodesEverything) {
  std::vector<Frame> sent;
  for (int i = 0; i < 5; ++i) {
    sent.push_back(make_frame(FrameType::kEntries,
                              std::string(static_cast<std::size_t>(i) * 7,
                                          static_cast<char>('a' + i))));
  }
  std::string stream;
  for (const Frame& frame : sent) stream += encode_frame(frame);

  std::vector<std::size_t> cuts(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) cuts[i] = i;
  std::vector<Frame> decoded;
  decode_chunked(stream, cuts, decoded);
  expect_same_frames(decoded, sent);
}

TEST(FrameDecoder, ErrorVerdictsAreSticky) {
  FrameDecoder decoder;
  std::string bytes = encode_frame(make_frame(FrameType::kPing, "x"));
  bytes[0] = 'X';  // bad magic
  decoder.feed(bytes);
  EXPECT_EQ(decoder.next().status, DecodeStatus::kBadMagic);
  // Framing is lost for good: feeding a perfectly valid frame after the
  // poison changes nothing.
  decoder.feed(encode_frame(make_frame(FrameType::kPing, "y")));
  EXPECT_EQ(decoder.next().status, DecodeStatus::kBadMagic);
}

// ------------------------------------------------------- socket framing

/// A loopback listener + connected client pair.
struct Loopback {
  Listener listener;
  Socket client;
  Socket server;

  static Loopback open() {
    Loopback pair;
    auto listener = Listener::open(0);
    EXPECT_TRUE(listener.has_value());
    pair.listener = std::move(*listener);
    auto connected =
        tcp_connect("127.0.0.1", pair.listener.port(), 2.0);
    EXPECT_TRUE(connected.has_value());
    pair.client = std::move(*connected);
    auto accepted = pair.listener.accept();
    EXPECT_TRUE(accepted.has_value());
    pair.server = std::move(*accepted);
    return pair;
  }
};

TEST(SocketFraming, WriteReadRoundTrip) {
  Loopback pair = Loopback::open();
  const Frame sent = make_frame(FrameType::kSolveRequest,
                                std::string(100000, 'z'));
  ASSERT_TRUE(write_frame(pair.client, sent));
  Frame received;
  ASSERT_EQ(read_frame(pair.server, received), FrameReadStatus::kOk);
  EXPECT_EQ(received.type, sent.type);
  EXPECT_EQ(received.payload, sent.payload);
}

TEST(SocketFraming, CleanDisconnectBetweenFramesIsClosed) {
  Loopback pair = Loopback::open();
  pair.client.close();
  Frame frame;
  EXPECT_EQ(read_frame(pair.server, frame), FrameReadStatus::kClosed);
}

TEST(SocketFraming, MidFrameDisconnectIsTruncated) {
  Loopback pair = Loopback::open();
  const std::string bytes =
      encode_frame(make_frame(FrameType::kSolveRequest, "partial"));
  ASSERT_TRUE(pair.client.send_all(bytes.data(), bytes.size() - 3));
  pair.client.close();
  Frame frame;
  EXPECT_EQ(read_frame(pair.server, frame), FrameReadStatus::kTruncated);
}

TEST(SocketFraming, OversizedHeaderIsReportedBeforeReadingPayload) {
  Loopback pair = Loopback::open();
  Frame huge = make_frame(FrameType::kPing, "");
  std::string bytes = encode_frame(huge);
  bytes[8] = static_cast<char>(0x7f);  // ~2 GiB claimed, nothing sent
  ASSERT_TRUE(pair.client.send_all(bytes.data(), bytes.size()));
  Frame frame;
  EXPECT_EQ(read_frame(pair.server, frame), FrameReadStatus::kOversized);
}

// ------------------------------------------------------- server + client

/// Answers every frame on the reader thread: the request echoed back
/// as a kPong.
void echo_pong(Frame request, Responder& respond) {
  request.type = FrameType::kPong;
  respond.send(std::move(request));
}

/// A handler answering every frame from the server's pool with
/// `answer(request)` (nullopt closes the connection): the shape of a
/// frame that may block.
FrameHandler on_pool(std::function<std::optional<Frame>(const Frame&)> answer) {
  return [answer](Frame request, Responder& respond) {
    respond.defer(
        [answer, request = std::move(request)](Responder& deferred) {
          if (auto reply = answer(request)) deferred.send(std::move(*reply));
        });
  };
}

/// An echo server on an ephemeral port with its own pool.
struct EchoFixture {
  ThreadPool pool{4};
  std::unique_ptr<FrameServer> server;

  EchoFixture() {
    server = FrameServer::start(0, echo_pong, pool);
    EXPECT_NE(server, nullptr);
  }
};

TEST(FrameServerTest, EchoRoundTripAndStats) {
  EchoFixture fixture;
  MuxFrameClient client("127.0.0.1", fixture.server->port());
  for (int i = 0; i < 3; ++i) {
    const auto reply =
        client.call(make_frame(FrameType::kPing, "echo " + std::to_string(i)));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, FrameType::kPong);
    EXPECT_EQ(reply->payload, "echo " + std::to_string(i));
  }
  const FrameServerStats stats = fixture.server->stats();
  EXPECT_EQ(stats.connections, 1u);  // one client, one connection reused
  EXPECT_EQ(stats.frames, 4u);       // three echoes + the connect probe
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(FrameServerTest, ManyConcurrentClients) {
  EchoFixture fixture;
  std::vector<std::future<bool>> results;
  for (int c = 0; c < 8; ++c) {
    results.push_back(std::async(std::launch::async, [&fixture, c] {
      MuxFrameClient client("127.0.0.1", fixture.server->port());
      for (int i = 0; i < 5; ++i) {
        const auto reply = client.call(
            make_frame(FrameType::kPing, std::to_string(c * 100 + i)));
        if (!reply || reply->payload != std::to_string(c * 100 + i)) {
          return false;
        }
      }
      return true;
    }));
  }
  for (auto& result : results) EXPECT_TRUE(result.get());
}

TEST(FrameServerTest, BadMagicGetsErrorFrameAndServerSurvives) {
  EchoFixture fixture;
  auto raw = tcp_connect("127.0.0.1", fixture.server->port(), 2.0);
  ASSERT_TRUE(raw.has_value());
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(raw->send_all(garbage.data(), garbage.size()));
  Frame reply;
  ASSERT_EQ(read_frame(*raw, reply), FrameReadStatus::kOk);
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.payload, "bad magic");
  // The connection is closed after the error...
  EXPECT_EQ(read_frame(*raw, reply), FrameReadStatus::kClosed);
  // ...but the server keeps serving fresh connections.
  MuxFrameClient client("127.0.0.1", fixture.server->port());
  EXPECT_TRUE(client.call(make_frame(FrameType::kPing, "alive")).has_value());
  EXPECT_GE(fixture.server->stats().protocol_errors, 1u);
}

TEST(FrameServerTest, VersionMismatchGetsErrorFrame) {
  EchoFixture fixture;
  auto raw = tcp_connect("127.0.0.1", fixture.server->port(), 2.0);
  ASSERT_TRUE(raw.has_value());
  std::string future_version =
      encode_frame(make_frame(FrameType::kPing, "from the future"));
  future_version[4] = static_cast<char>(kProtocolVersion + 7);
  ASSERT_TRUE(raw->send_all(future_version.data(), future_version.size()));
  Frame reply;
  ASSERT_EQ(read_frame(*raw, reply), FrameReadStatus::kOk);
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.payload, "unsupported protocol version");
}

TEST(FrameServerTest, OversizedPayloadGetsErrorFrame) {
  ThreadPool pool(2);
  auto server = FrameServer::start(0, echo_pong, pool, /*max_payload=*/64);
  ASSERT_NE(server, nullptr);
  auto raw = tcp_connect("127.0.0.1", server->port(), 2.0);
  ASSERT_TRUE(raw.has_value());
  const std::string big =
      encode_frame(make_frame(FrameType::kPing, std::string(65, 'x')));
  ASSERT_TRUE(raw->send_all(big.data(), big.size()));
  Frame reply;
  ASSERT_EQ(read_frame(*raw, reply), FrameReadStatus::kOk);
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.payload, "payload too large");
}

TEST(FrameServerTest, TruncatedFrameThenDisconnectIsCountedNotFatal) {
  EchoFixture fixture;
  {
    auto raw = tcp_connect("127.0.0.1", fixture.server->port(), 2.0);
    ASSERT_TRUE(raw.has_value());
    const std::string bytes =
        encode_frame(make_frame(FrameType::kPing, "never finished"));
    ASSERT_TRUE(raw->send_all(bytes.data(), bytes.size() - 5));
  }  // disconnect mid-frame
  // The server must notice and keep serving; poll until the error is
  // counted (the connection task runs asynchronously).
  for (int spin = 0; spin < 200; ++spin) {
    if (fixture.server->stats().protocol_errors >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(fixture.server->stats().protocol_errors, 1u);
  MuxFrameClient client("127.0.0.1", fixture.server->port());
  EXPECT_TRUE(client.call(make_frame(FrameType::kPing, "alive")).has_value());
}

TEST(FrameServerTest, V1FrameGetsUnsupportedVersionPromptly) {
  EchoFixture fixture;
  auto raw = tcp_connect("127.0.0.1", fixture.server->port(), 2.0);
  ASSERT_TRUE(raw.has_value());
  // A retired-v1 header-only frame: 12 bytes, empty payload. The server
  // must judge it on those 12 bytes rather than wait for 4 id bytes a
  // v1 peer never sends.
  const char v1_ping[12] = {'P', 'R', 'T', 'F', 1, 3, 0, 0, 0, 0, 0, 0};
  ASSERT_TRUE(raw->send_all(v1_ping, sizeof(v1_ping)));
  raw->set_receive_timeout(2.0);
  const auto start = std::chrono::steady_clock::now();
  Frame reply;
  ASSERT_EQ(read_frame(*raw, reply), FrameReadStatus::kOk);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            1.0);
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.payload, "unsupported protocol version");
  // The connection is closed after the error...
  EXPECT_EQ(read_frame(*raw, reply), FrameReadStatus::kClosed);
  EXPECT_EQ(fixture.server->stats().protocol_errors, 1u);
  // ...and the server keeps serving.
  MuxFrameClient client("127.0.0.1", fixture.server->port());
  EXPECT_TRUE(client.call(make_frame(FrameType::kPing, "alive")).has_value());
}

TEST(FrameServerTest, StopUnblocksIdleConnections) {
  auto fixture = std::make_unique<EchoFixture>();
  MuxFrameClient client("127.0.0.1", fixture->server->port());
  ASSERT_TRUE(client.call(make_frame(FrameType::kPing, "warm")).has_value());
  // The server-side connection loop is now blocked in read_frame;
  // stop() must wake it and return promptly.
  fixture->server->stop();
  // After stop, the client's next call fails cleanly.
  EXPECT_FALSE(client.call(make_frame(FrameType::kPing, "gone")).has_value());
}

TEST(FrameServerTest, StartStopLoopWhileClientsConnect) {
  // stop() races the accept thread by construction: a dialer keeps
  // connecting while servers start and stop underneath it. Every stop
  // must return, and (under TSan) the listener shutdown must not race
  // the blocked accept().
  ThreadPool pool(2);
  std::atomic<std::uint16_t> port{0};
  std::atomic<bool> done{false};
  std::thread dialer([&] {
    while (!done.load()) {
      const std::uint16_t target = port.load();
      if (target == 0) continue;
      if (auto socket = tcp_connect("127.0.0.1", target, 0.2)) {
        const std::string ping = encode_frame(make_frame(FrameType::kPing, ""));
        socket->send_all(ping.data(), ping.size());
      }
    }
  });
  for (int round = 0; round < 50; ++round) {
    auto server = FrameServer::start(0, echo_pong, pool);
    ASSERT_NE(server, nullptr);
    port.store(server->port());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    server->stop();
  }
  done.store(true);
  dialer.join();
}

TEST(FrameServerTest, ThrowingAndSilentHandlersOnReaderAndPool) {
  // A handler that throws, on the reader or in a deferred task, gets
  // its frame answered with kError and the connection closed; one that
  // leaves its responder unanswered closes the connection without a
  // reply. The server keeps serving either way.
  ThreadPool pool(2);
  auto server = FrameServer::start(
      0,
      [](Frame request, Responder& respond) {
        if (request.payload == "throw") throw std::runtime_error("boom");
        if (request.payload == "defer-throw") {
          respond.defer(
              [](Responder&) { throw std::runtime_error("late boom"); });
          return;
        }
        if (request.payload == "drop") return;
        echo_pong(std::move(request), respond);
      },
      pool);
  ASSERT_NE(server, nullptr);
  const std::vector<std::pair<std::string, std::string>> cases{
      {"throw", "handler error: boom"},
      {"defer-throw", "handler error: late boom"},
      {"drop", ""},
  };
  for (const auto& [payload, error] : cases) {
    auto raw = tcp_connect("127.0.0.1", server->port(), 2.0);
    ASSERT_TRUE(raw.has_value());
    raw->set_receive_timeout(2.0);
    Frame request = make_frame(FrameType::kPing, payload);
    request.request_id = 5;
    ASSERT_TRUE(write_frame(*raw, request));
    Frame reply;
    if (!error.empty()) {
      ASSERT_EQ(read_frame(*raw, reply), FrameReadStatus::kOk) << payload;
      EXPECT_EQ(reply.type, FrameType::kError) << payload;
      EXPECT_EQ(reply.payload, error);
      EXPECT_EQ(reply.request_id, 5u) << payload;
    }
    EXPECT_EQ(read_frame(*raw, reply), FrameReadStatus::kClosed) << payload;
  }
  MuxFrameClient client("127.0.0.1", server->port());
  EXPECT_TRUE(client.call(make_frame(FrameType::kPing, "alive")).has_value());
}

// ----------------------------------------------------------- mux client

TEST(MuxClientTest, RecoversAfterBackoffWindow) {
  FrameClientConfig config;
  config.connect_timeout_seconds = 0.5;
  config.backoff_initial_seconds = 0.05;
  ThreadPool pool(2);
  // Fail once against a dead port, then bring a server up on that very
  // port and retry after the window.
  auto placeholder = Listener::open(0);
  ASSERT_TRUE(placeholder.has_value());
  const std::uint16_t port = placeholder->port();
  placeholder->close();

  MuxFrameClient client("127.0.0.1", port, config);
  EXPECT_FALSE(client.call(make_frame(FrameType::kPing, "x")).has_value());

  auto server = FrameServer::start(port, echo_pong, pool);
  ASSERT_NE(server, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  const auto reply = client.call(make_frame(FrameType::kPing, "back"));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, "back");
  EXPECT_FALSE(client.suspect());
}

/// Serves the connect probe on a raw socket: reads one frame, echoes a
/// kPong with the same request id. Returns the accepted socket (nullopt
/// on failure).
std::optional<Socket> accept_and_answer_probe(Listener& listener) {
  auto accepted = listener.accept();
  if (!accepted) return std::nullopt;
  Frame ping;
  if (read_frame(*accepted, ping) != FrameReadStatus::kOk) return std::nullopt;
  Frame pong;
  pong.type = FrameType::kPong;
  pong.request_id = ping.request_id;
  if (!write_frame(*accepted, pong)) return std::nullopt;
  return accepted;
}

TEST(MuxClientTest, ReplyTimeoutIsCountedSeparatelyWithGentleBackoff) {
  // A peer that answers the connect probe and then never answers again:
  // the verdict must be a timeout (counted in stats.timeouts), not a
  // generic failure, and the backoff window must be the short slow-peer
  // one.
  auto listener = Listener::open(0);
  ASSERT_TRUE(listener.has_value());
  std::thread sink([&listener] {
    auto accepted = accept_and_answer_probe(*listener);
    if (!accepted) return;
    Frame swallowed;
    read_frame(*accepted, swallowed);  // read the request, never reply
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  });
  FrameClientConfig config;
  config.reply_timeout_seconds = 0.1;
  config.backoff_timeout_initial_seconds = 0.05;
  config.backoff_initial_seconds = 60.0;  // a refusal would pin suspect()
  MuxFrameClient client("127.0.0.1", listener->port(), config);
  EXPECT_FALSE(client.call(make_frame(FrameType::kPing, "x")).has_value());
  EXPECT_EQ(client.stats().timeouts, 1u);
  EXPECT_TRUE(client.suspect());
  // Gentle window: a slow peer is eclipsed for 50ms, not 60s.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(client.suspect());
  sink.join();
}

TEST(MuxClientTest, StatsAndSuspectDoNotBlockBehindInflightCall) {
  // Health probes must return while a round trip is parked on the wire.
  ThreadPool pool(2);
  auto server = FrameServer::start(
      0,
      on_pool([](const Frame& request) -> std::optional<Frame> {
        Frame reply = request;
        reply.type = FrameType::kPong;
        // The connect probe is answered at once; real work is slow.
        if (request.type != FrameType::kPing) {
          std::this_thread::sleep_for(std::chrono::milliseconds(400));
        }
        return reply;
      }),
      pool);
  ASSERT_NE(server, nullptr);
  MuxFrameClient client("127.0.0.1", server->port());
  std::future<bool> slow_call = std::async(std::launch::async, [&client] {
    return client.call(make_frame(FrameType::kSolveRequest, "slow"))
        .has_value();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto probe_start = std::chrono::steady_clock::now();
  (void)client.suspect();
  (void)client.stats();
  const double probe_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    probe_start)
          .count();
  EXPECT_LT(probe_seconds, 0.15);  // far less than the 300ms still on the wire
  EXPECT_TRUE(slow_call.get());
}


TEST(MuxClientTest, ConcurrentCallsShareOneConnectionWithDistinctAnswers) {
  ThreadPool pool(8);
  auto server = FrameServer::start(
      0,
      on_pool([](const Frame& request) -> std::optional<Frame> {
        // A small stagger so several exchanges overlap on the wire.
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        Frame reply = request;
        reply.type = FrameType::kPong;
        return reply;
      }),
      pool);
  ASSERT_NE(server, nullptr);
  MuxFrameClient client("127.0.0.1", server->port());
  std::vector<std::future<std::optional<Frame>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        client.call_async(make_frame(FrameType::kPing, std::to_string(i))));
  }
  for (int i = 0; i < 8; ++i) {
    const std::optional<Frame> reply = futures[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(reply.has_value()) << "call " << i;
    EXPECT_EQ(reply->type, FrameType::kPong);
    EXPECT_EQ(reply->payload, std::to_string(i)) << "call " << i;
  }
  // Pipelining proof: one TCP connection (the connect probe rides the
  // same connection), several exchanges outstanding at once.
  EXPECT_EQ(server->stats().connections, 1u);
  EXPECT_GT(client.stats().max_inflight, 1u);
}

TEST(MuxClientTest, OutOfOrderRepliesCorrelateByRequestId) {
  ThreadPool pool(4);
  auto server = FrameServer::start(
      0,
      on_pool([](const Frame& request) -> std::optional<Frame> {
        if (request.payload == "slow") {
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
        }
        Frame reply = request;
        reply.type = FrameType::kPong;
        return reply;
      }),
      pool);
  ASSERT_NE(server, nullptr);
  MuxFrameClient client("127.0.0.1", server->port());
  auto slow = client.call_async(make_frame(FrameType::kPing, "slow"));
  auto fast = client.call_async(make_frame(FrameType::kPing, "fast"));
  // The fast reply overtakes the slow one on the shared connection...
  const std::optional<Frame> fast_reply = fast.get();
  ASSERT_TRUE(fast_reply.has_value());
  EXPECT_EQ(fast_reply->payload, "fast");
  EXPECT_NE(slow.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  // ...and each waiter still gets its own answer.
  const std::optional<Frame> slow_reply = slow.get();
  ASSERT_TRUE(slow_reply.has_value());
  EXPECT_EQ(slow_reply->payload, "slow");
}

TEST(MuxClientTest, ReplyForUnknownIdIsDroppedAndConnectionSurvives) {
  auto listener = Listener::open(0);
  ASSERT_TRUE(listener.has_value());
  std::thread server([&listener] {
    auto socket = accept_and_answer_probe(*listener);
    ASSERT_TRUE(socket.has_value());
    Frame request;
    ASSERT_EQ(read_frame(*socket, request), FrameReadStatus::kOk);
    // A reply nobody asked for, then the real one.
    Frame bogus;
    bogus.type = FrameType::kPong;
    bogus.request_id = request.request_id + 999;
    ASSERT_TRUE(write_frame(*socket, bogus));
    Frame reply = request;
    reply.type = FrameType::kPong;
    ASSERT_TRUE(write_frame(*socket, reply));
    // Hold the connection open until the client is done with it.
    Frame ignored;
    read_frame(*socket, ignored);
  });
  {
    MuxFrameClient client("127.0.0.1", listener->port());
    const std::optional<Frame> reply =
        client.call(make_frame(FrameType::kPing, "real"));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->payload, "real");
    EXPECT_EQ(client.unknown_replies(), 1u);
    EXPECT_FALSE(client.suspect());
  }
  server.join();
}

TEST(MuxClientTest, MidStreamDeathFailsAllOutstandingPromises) {
  auto listener = Listener::open(0);
  ASSERT_TRUE(listener.has_value());
  constexpr int kOutstanding = 4;
  std::thread server([&listener] {
    auto socket = accept_and_answer_probe(*listener);
    ASSERT_TRUE(socket.has_value());
    for (int i = 0; i < kOutstanding; ++i) {
      Frame request;
      ASSERT_EQ(read_frame(*socket, request), FrameReadStatus::kOk);
    }
    socket->close();  // dies with every exchange still outstanding
  });
  FrameClientConfig config;
  config.reply_timeout_seconds = 30.0;  // death must come from EOF, not expiry
  MuxFrameClient client("127.0.0.1", listener->port(), config);
  std::vector<std::future<std::optional<Frame>>> futures;
  for (int i = 0; i < kOutstanding; ++i) {
    futures.push_back(
        client.call_async(make_frame(FrameType::kPing, std::to_string(i))));
  }
  for (auto& future : futures) {
    // Exactly once per waiter, promptly, with nullopt — never a hang.
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_FALSE(future.get().has_value());
  }
  EXPECT_TRUE(client.suspect());
  EXPECT_GE(client.stats().failures, static_cast<std::uint64_t>(kOutstanding));
  server.join();
}

TEST(MuxClientTest, PerRequestDeadlineExpiresWithoutKillingTheConnection) {
  ThreadPool pool(4);
  auto server = FrameServer::start(
      0,
      on_pool([](const Frame& request) -> std::optional<Frame> {
        if (request.payload == "glacial") {
          std::this_thread::sleep_for(std::chrono::milliseconds(600));
        }
        Frame reply = request;
        reply.type = FrameType::kPong;
        return reply;
      }),
      pool);
  ASSERT_NE(server, nullptr);
  MuxFrameClient client("127.0.0.1", server->port());
  // A steady heartbeat keeps bytes flowing, so the expiring request is
  // "slow solve", not "silent peer" — only it may fail.
  auto warm = client.call(make_frame(FrameType::kPing, "warm"));
  ASSERT_TRUE(warm.has_value());
  auto doomed =
      client.call_async(make_frame(FrameType::kPing, "glacial"), 0.15);
  std::optional<Frame> heartbeat;
  for (int i = 0; i < 4; ++i) {
    heartbeat = client.call(make_frame(FrameType::kPing, "beat"));
    ASSERT_TRUE(heartbeat.has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  ASSERT_EQ(doomed.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_FALSE(doomed.get().has_value());
  EXPECT_GE(client.stats().timeouts, 1u);
  // The connection survived the expiry: later calls still answered,
  // and the glacial reply that eventually lands is dropped by id.
  EXPECT_TRUE(client.call(make_frame(FrameType::kPing, "after")).has_value());
  EXPECT_EQ(server->stats().connections, 1u);
}

// ------------------------------------------------------ backoff jitter

TEST(BackoffJitter, DrawsStayInsideTheFractionBandAndActuallySpread) {
  std::uint64_t state = jitter_seed_for("127.0.0.1", 4242);
  ASSERT_NE(state, 0u);
  const double base = 0.2;
  const double jitter = 0.25;
  double lo = 1e9;
  double hi = 0.0;
  for (int i = 0; i < 64; ++i) {
    const double drawn = jittered_backoff(base, jitter, state);
    EXPECT_GE(drawn, base * (1.0 - jitter));
    EXPECT_LE(drawn, base * (1.0 + jitter));
    lo = std::min(lo, drawn);
    hi = std::max(hi, drawn);
  }
  // The herd-breaking property: the stream genuinely spreads over the
  // band instead of collapsing to the midpoint (64 uniform draws reach
  // both outer 15% tails with overwhelming probability).
  EXPECT_LT(lo, base * 0.85);
  EXPECT_GT(hi, base * 1.15);
}

TEST(BackoffJitter, SameSeedSameStreamDifferentSeedsDiverge) {
  std::uint64_t a = jitter_seed_for("10.0.0.1", 9000);
  std::uint64_t b = jitter_seed_for("10.0.0.1", 9000);
  std::uint64_t c = jitter_seed_for("10.0.0.1", 9001);
  bool diverged = false;
  for (int i = 0; i < 16; ++i) {
    const double from_a = jittered_backoff(1.0, 0.25, a);
    EXPECT_DOUBLE_EQ(from_a, jittered_backoff(1.0, 0.25, b));
    if (from_a != jittered_backoff(1.0, 0.25, c)) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(BackoffJitter, ZeroJitterIsExactAndFractionIsClamped) {
  std::uint64_t state = 1;
  EXPECT_DOUBLE_EQ(jittered_backoff(0.5, 0.0, state), 0.5);
  // A fraction above 1 clamps to 1: a drawn window may reach 0 but
  // never goes negative.
  for (int i = 0; i < 32; ++i) {
    const double drawn = jittered_backoff(0.5, 7.0, state);
    EXPECT_GE(drawn, 0.0);
    EXPECT_LE(drawn, 1.0);
  }
}

// ------------------------------------------ mux completion contract

/// Records every completion run: how many, how many carried a reply,
/// and the thread that ran the last one.
class CompletionLog {
 public:
  MuxFrameClient::Completion completion() {
    return [this](std::optional<Frame> reply) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++runs_;
      if (reply) ++replies_;
      thread_ = std::this_thread::get_id();
      cv_.notify_all();
    };
  }

  /// Waits until `count` completions ran; false on timeout.
  bool wait_for(int count, double seconds = 5.0) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                        [&] { return runs_ >= count; });
  }

  int runs() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return runs_;
  }
  int replies() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return replies_;
  }
  std::thread::id thread() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return thread_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  int runs_ = 0;
  int replies_ = 0;
  std::thread::id thread_;
};

TEST(MuxCompletion, ReplyRunsTheCompletionOnceOnTheReader) {
  EchoFixture fixture;
  MuxFrameClient client("127.0.0.1", fixture.server->port());
  CompletionLog log;
  client.call_async(make_frame(FrameType::kPing, "one"), log.completion());
  ASSERT_TRUE(log.wait_for(1));
  EXPECT_EQ(log.replies(), 1);
  // Not the caller's thread: the reader resolved it.
  EXPECT_NE(log.thread(), std::this_thread::get_id());
  // A later exchange on the same connection does not re-run it.
  EXPECT_TRUE(client.call(make_frame(FrameType::kPing, "two")).has_value());
  EXPECT_EQ(log.runs(), 1);
}

TEST(MuxCompletion, ExpiryRunsTheCompletionOnceEvenWhenTheReplyLands) {
  ThreadPool pool(4);
  auto server = FrameServer::start(
      0,
      on_pool([](const Frame& request) -> std::optional<Frame> {
        if (request.payload == "glacial") {
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
        }
        Frame reply = request;
        reply.type = FrameType::kPong;
        return reply;
      }),
      pool);
  ASSERT_NE(server, nullptr);
  MuxFrameClient client("127.0.0.1", server->port());
  ASSERT_TRUE(client.call(make_frame(FrameType::kPing, "warm")).has_value());
  CompletionLog log;
  client.call_async(make_frame(FrameType::kPing, "glacial"), 0.1,
                    log.completion());
  // Keep bytes flowing so the expiry is a slow request, not a silent
  // peer.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.call(make_frame(FrameType::kPing, "beat")).has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(log.wait_for(1));
  EXPECT_EQ(log.replies(), 0);
  // The late reply lands (and is dropped by id) without a second run.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (client.unknown_replies() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(client.unknown_replies(), 1u);
  EXPECT_EQ(log.runs(), 1);
}

TEST(MuxCompletion, MidStreamDeathRunsEveryCompletionOnce) {
  auto listener = Listener::open(0);
  ASSERT_TRUE(listener.has_value());
  constexpr int kOutstanding = 4;
  std::thread server([&listener] {
    auto socket = accept_and_answer_probe(*listener);
    ASSERT_TRUE(socket.has_value());
    for (int i = 0; i < kOutstanding; ++i) {
      Frame request;
      ASSERT_EQ(read_frame(*socket, request), FrameReadStatus::kOk);
    }
    socket->close();
  });
  FrameClientConfig config;
  config.reply_timeout_seconds = 30.0;
  MuxFrameClient client("127.0.0.1", listener->port(), config);
  CompletionLog log;
  for (int i = 0; i < kOutstanding; ++i) {
    client.call_async(make_frame(FrameType::kPing, std::to_string(i)),
                      log.completion());
  }
  ASSERT_TRUE(log.wait_for(kOutstanding, 10.0));
  server.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(log.runs(), kOutstanding);
  EXPECT_EQ(log.replies(), 0);
}

TEST(MuxCompletion, FastFailRunsTheCompletionOnTheCallerBeforeReturning) {
  FrameClientConfig config;
  config.connect_timeout_seconds = 0.5;
  config.backoff_initial_seconds = 60.0;  // the window outlives the test
  MuxFrameClient client("127.0.0.1", 1, config);
  CompletionLog refused;
  client.call_async(make_frame(FrameType::kPing, "x"), refused.completion());
  ASSERT_TRUE(refused.wait_for(1));
  EXPECT_EQ(refused.replies(), 0);
  ASSERT_TRUE(client.suspect());

  CompletionLog fast;
  client.call_async(make_frame(FrameType::kPing, "y"), fast.completion());
  EXPECT_EQ(fast.runs(), 1);  // already ran: synchronously, in call_async
  EXPECT_EQ(fast.thread(), std::this_thread::get_id());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fast.runs(), 1);
  EXPECT_EQ(refused.runs(), 1);
  EXPECT_EQ(client.stats().fast_failures, 1u);
}

TEST(MuxCompletion, DestructionRunsQueuedAndInFlightCompletionsOnce) {
  // In flight: the peer reads every request and never answers.
  {
    auto listener = Listener::open(0);
    ASSERT_TRUE(listener.has_value());
    constexpr int kInFlight = 3;
    std::atomic<int> read{0};
    std::thread server([&listener, &read] {
      auto socket = accept_and_answer_probe(*listener);
      if (!socket) return;
      Frame request;
      while (read_frame(*socket, request) == FrameReadStatus::kOk) ++read;
    });
    CompletionLog log;
    {
      MuxFrameClient client("127.0.0.1", listener->port());
      for (int i = 0; i < kInFlight; ++i) {
        client.call_async(make_frame(FrameType::kPing, "held"),
                          log.completion());
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (read.load() < kInFlight &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      ASSERT_EQ(read.load(), kInFlight);
      EXPECT_EQ(log.runs(), 0);
    }
    EXPECT_EQ(log.runs(), kInFlight);
    EXPECT_EQ(log.replies(), 0);
    server.join();
  }
  // Queued: the peer accepts but stalls the connect probe, so every
  // call is still waiting in the queue when the client dies.
  {
    auto listener = Listener::open(0);
    ASSERT_TRUE(listener.has_value());
    std::promise<void> accepted;
    std::thread server([&listener, &accepted] {
      auto socket = listener->accept();
      accepted.set_value();
      if (!socket) return;
      Frame probe;
      read_frame(*socket, probe);  // never answered
      read_frame(*socket, probe);  // parked until the client hangs up
    });
    FrameClientConfig config;
    config.connect_timeout_seconds = 0.5;
    CompletionLog log;
    {
      MuxFrameClient client("127.0.0.1", listener->port(), config);
      for (int i = 0; i < 4; ++i) {
        client.call_async(make_frame(FrameType::kPing, "queued"),
                          log.completion());
      }
      accepted.get_future().wait();
      EXPECT_EQ(log.runs(), 0);
    }
    EXPECT_EQ(log.runs(), 4);
    EXPECT_EQ(log.replies(), 0);
    server.join();
  }
}

TEST(MuxCompletion, CompletionMayCallBackIntoTheSameClient) {
  EchoFixture fixture;
  MuxFrameClient client("127.0.0.1", fixture.server->port());
  CompletionLog nested;
  std::promise<FrameClientStats> seen;
  client.call_async(make_frame(FrameType::kPing, "outer"),
                    [&](std::optional<Frame> reply) {
                      // Both take the client's lock: a completion run
                      // under it would deadlock here.
                      seen.set_value(client.stats());
                      client.call_async(make_frame(FrameType::kPing, "inner"),
                                        nested.completion());
                      EXPECT_TRUE(reply.has_value());
                    });
  auto stats = seen.get_future();
  ASSERT_EQ(stats.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_GE(stats.get().calls, 1u);
  ASSERT_TRUE(nested.wait_for(1));
  EXPECT_EQ(nested.replies(), 1);
}

TEST(MuxCompletion, ThrowingCompletionIsCountedAndTheConnectionKeepsServing) {
  EchoFixture fixture;
  obs::Registry metrics;
  FrameClientConfig config;
  config.metrics = &metrics;
  MuxFrameClient client("127.0.0.1", fixture.server->port(), config);
  std::promise<void> thrown;
  client.call_async(make_frame(FrameType::kPing, "boom"),
                    [&thrown](std::optional<Frame>) {
                      thrown.set_value();
                      throw std::runtime_error("completion failed");
                    });
  ASSERT_EQ(thrown.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  // The reader survived the throw: later replies on the same
  // connection still arrive (and are read only after the throw was
  // caught and counted).
  for (int i = 0; i < 3; ++i) {
    const auto reply = client.call(make_frame(FrameType::kPing, "after"));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->payload, "after");
  }
  EXPECT_EQ(client.stats().completion_errors, 1u);
  EXPECT_EQ(metrics.counter("net_client_completion_errors_total").value(), 1u);
  EXPECT_EQ(client.stats().connects, 1u);
  EXPECT_EQ(fixture.server->stats().connections, 1u);
}

/// Per-call completion counts for calls started from several threads.
class CallTally {
 public:
  explicit CallTally(std::size_t calls) : runs_(calls), replies_(calls) {}

  MuxFrameClient::Completion completion(std::size_t call) {
    return [this, call](std::optional<Frame> reply) {
      ++runs_[call];
      if (reply) ++replies_[call];
      ++total_;
    };
  }

  /// Waits until every call resolved at least once; false on timeout.
  bool wait_all(double seconds = 10.0) const {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    while (total_.load() < runs_.size()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  /// Calls whose completion ran other than exactly once.
  std::size_t not_once() const {
    std::size_t count = 0;
    for (const auto& runs : runs_) count += runs.load() != 1;
    return count;
  }

  std::size_t replies() const {
    std::size_t count = 0;
    for (const auto& replies : replies_) count += replies.load();
    return count;
  }

 private:
  std::vector<std::atomic<int>> runs_;
  std::vector<std::atomic<int>> replies_;
  std::atomic<std::size_t> total_{0};
};

/// Starts `per_thread` calls on each of `threads` threads at once.
void call_from_threads(MuxFrameClient& client, CallTally& tally,
                       std::size_t threads, std::size_t per_thread) {
  std::atomic<bool> go{false};
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < threads; ++t) {
    callers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (std::size_t i = 0; i < per_thread; ++i) {
        client.call_async(make_frame(FrameType::kPing, "race"),
                          tally.completion(t * per_thread + i));
      }
    });
  }
  go.store(true);
  for (std::thread& caller : callers) caller.join();
}

TEST(MuxCompletion, CallsRacingTheFirstConnectEachResolveOnce) {
  // Callers start the instant the client exists: the first ones queue
  // for the connection's thread, the later ones write their own frames
  // once it is up. Every call is answered, once, on one connection.
  EchoFixture fixture;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 200;
  CallTally tally(kThreads * kPerThread);
  MuxFrameClient client("127.0.0.1", fixture.server->port());
  call_from_threads(client, tally, kThreads, kPerThread);
  ASSERT_TRUE(tally.wait_all());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(tally.not_once(), 0u);
  EXPECT_EQ(tally.replies(), kThreads * kPerThread);
  EXPECT_EQ(client.stats().connects, 1u);
  EXPECT_EQ(fixture.server->stats().connections, 1u);
}

TEST(MuxCompletion, CallsRacingAFailingWriteEachResolveOnce) {
  // The peer answers the probe, reads a few frames and resets the
  // connection while callers keep writing: writes fail, frames die in
  // flight, the backoff arms. Every call still resolves exactly once.
  auto listener = Listener::open(0);
  ASSERT_TRUE(listener.has_value());
  std::thread server([&listener] {
    auto socket = accept_and_answer_probe(*listener);
    if (!socket) return;
    Frame request;
    for (int i = 0; i < 5; ++i) read_frame(*socket, request);
    socket->close();  // unread frames behind these: the peer sees a reset
  });
  FrameClientConfig config;
  config.connect_timeout_seconds = 0.5;
  config.reply_timeout_seconds = 5.0;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 200;
  CallTally tally(kThreads * kPerThread);
  {
    MuxFrameClient client("127.0.0.1", listener->port(), config);
    call_from_threads(client, tally, kThreads, kPerThread);
    ASSERT_TRUE(tally.wait_all());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(tally.not_once(), 0u);
    EXPECT_EQ(tally.replies(), 0u);
    EXPECT_EQ(client.stats().failures, kThreads * kPerThread);
  }
  server.join();
}

// ------------------------------------------------------- authentication

TEST(FrameAuth, WrongTokenIsRejectedCountedAndRightTokenAdmits) {
  ThreadPool pool{4};
  obs::Registry metrics;
  auto server = FrameServer::start(0, echo_pong, pool, kDefaultMaxPayload,
                                  &metrics, nullptr, nullptr, "sesame");
  ASSERT_NE(server, nullptr);

  // No token: the first frame (the connect probe) is not kAuth —
  // answered with kError and a close, never handled.
  {
    MuxFrameClient anonymous("127.0.0.1", server->port());
    const auto reply = anonymous.call(make_frame(FrameType::kPing, ""));
    EXPECT_TRUE(!reply.has_value() || reply->type == FrameType::kError);
  }
  // Wrong token: the handshake itself is refused.
  {
    FrameClientConfig config;
    config.auth_token = "wrong";
    MuxFrameClient impostor("127.0.0.1", server->port(), config);
    EXPECT_FALSE(impostor.call(make_frame(FrameType::kPing, "")).has_value());
  }
  EXPECT_GE(server->stats().auth_failures, 2u);
  EXPECT_GE(metrics.counter("net_server_auth_failures_total").value(), 2u);

  // The right token admits.
  FrameClientConfig config;
  config.auth_token = "sesame";
  MuxFrameClient client("127.0.0.1", server->port(), config);
  const auto reply = client.call(make_frame(FrameType::kPing, "open"));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kPong);
  EXPECT_EQ(reply->payload, "open");
}

TEST(FrameAuth, TokenOnAnOpenServerIsHarmless) {
  // A client configured with a token against a server that never asked
  // for one: the kAuth frame is just another frame — the server must
  // acknowledge rather than choke, so one config can span mixed fleets.
  EchoFixture fixture;
  FrameClientConfig config;
  config.auth_token = "sesame";
  MuxFrameClient client("127.0.0.1", fixture.server->port(), config);
  const auto reply = client.call(make_frame(FrameType::kPing, "hello"));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, "hello");
}

TEST(MuxClientTest, NoServerFailsCleanlyAndArmsBackoff) {
  FrameClientConfig config;
  config.connect_timeout_seconds = 0.5;
  config.backoff_initial_seconds = 60.0;  // window outlives the test
  MuxFrameClient client("127.0.0.1", 1, config);
  EXPECT_FALSE(client.call(make_frame(FrameType::kPing, "x")).has_value());
  EXPECT_TRUE(client.suspect());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.call(make_frame(FrameType::kPing, "y")).has_value());
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 0.25);
  EXPECT_GE(client.stats().fast_failures, 1u);
  EXPECT_EQ(client.stats().failures, 2u);
}

}  // namespace
}  // namespace prts::net
