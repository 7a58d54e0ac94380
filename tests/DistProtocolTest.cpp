//===- tests/DistProtocolTest.cpp - Wire-protocol framing tests -------------===//
///
/// \file
/// Unit tests for the `src/dist` framed protocol (DESIGN.md §16): codec
/// round trips, the FrameReader's handling of fragmented, truncated, and
/// corrupted streams, and the canonical verdict-line rendering the
/// dist_consistency gates diff.
///
//===----------------------------------------------------------------------===//

#include "dist/Protocol.h"

#include "gtest/gtest.h"

using namespace sbd;
using namespace sbd::dist;

namespace {

WireRequest sampleRequest() {
  WireRequest Req;
  Req.Id = 42;
  Req.Pattern = "(a|b)*&~(c)";
  Req.Opts.TimeoutMs = 250;
  Req.Opts.MaxStates = 4096;
  Req.Opts.Strategy = SearchStrategy::Dfs;
  return Req;
}

WireResponse sampleResponse() {
  WireResponse Resp;
  Resp.Id = 42;
  Resp.Result.ParseOk = true;
  Resp.Result.Result.Status = SolveStatus::Sat;
  Resp.Result.Result.Stop = StopReason::None;
  Resp.Result.Result.Stats.Engine = SolveEngine::DerivBfs;
  Resp.Result.Result.Note = "routed: default_derivative";
  Resp.Result.Result.StatesExplored = 17;
  Resp.Result.Result.TimeUs = 1234;
  Resp.Result.Result.Stats.TotalUs = 1300;
  Resp.Result.Result.Witness = {97, 0x1F600, 98};
  return Resp;
}

//===----------------------------------------------------------------------===//
// Codec round trips
//===----------------------------------------------------------------------===//

TEST(DistProtocolTest, RequestRoundTrip) {
  WireRequest Req = sampleRequest();
  std::vector<uint8_t> Wire;
  encodeRequest(Wire, Req);

  FrameReader Reader;
  Reader.feed(Wire.data(), Wire.size());
  Frame F;
  ASSERT_TRUE(Reader.next(F));
  EXPECT_EQ(F.Type, FrameType::Request);
  // id, pattern (u32 length + bytes), timeout, state budget, strategy: the
  // strategy byte is the last one, with no flags byte after it.
  EXPECT_EQ(F.Payload.size(), 8 + 4 + Req.Pattern.size() + 8 + 8 + 1);
  EXPECT_EQ(F.Payload.back(), static_cast<uint8_t>(SearchStrategy::Dfs));
  std::optional<WireRequest> Back = decodeRequest(F.Payload);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Id, Req.Id);
  EXPECT_EQ(Back->Pattern, Req.Pattern);
  EXPECT_EQ(Back->Opts.TimeoutMs, Req.Opts.TimeoutMs);
  EXPECT_EQ(Back->Opts.MaxStates, Req.Opts.MaxStates);
  EXPECT_EQ(Back->Opts.Strategy, Req.Opts.Strategy);
  EXPECT_TRUE(Reader.idle());
}

TEST(DistProtocolTest, ResponseRoundTripBitIdentical) {
  WireResponse Resp = sampleResponse();
  std::vector<uint8_t> Wire;
  encodeResponse(Wire, Resp);

  FrameReader Reader;
  Reader.feed(Wire.data(), Wire.size());
  Frame F;
  ASSERT_TRUE(Reader.next(F));
  EXPECT_EQ(F.Type, FrameType::Response);
  std::optional<WireResponse> Back = decodeResponse(F.Payload);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Id, Resp.Id);
  EXPECT_EQ(Back->Result.ParseOk, Resp.Result.ParseOk);
  EXPECT_EQ(Back->Result.Result.Status, Resp.Result.Result.Status);
  EXPECT_EQ(Back->Result.Result.Stop, Resp.Result.Result.Stop);
  EXPECT_EQ(Back->Result.Result.Stats.Engine, Resp.Result.Result.Stats.Engine);
  EXPECT_EQ(Back->Result.Result.Note, Resp.Result.Result.Note);
  EXPECT_EQ(Back->Result.Result.StatesExplored,
            Resp.Result.Result.StatesExplored);
  EXPECT_EQ(Back->Result.Result.TimeUs, Resp.Result.Result.TimeUs);
  EXPECT_EQ(Back->Result.Result.Witness, Resp.Result.Result.Witness);
  // The rendered verdict line — what the consistency gates diff — must
  // survive the round trip byte-for-byte.
  EXPECT_EQ(renderVerdictLine(7, Back->Result),
            renderVerdictLine(7, Resp.Result));
}

TEST(DistProtocolTest, ParseErrorResponseRoundTrip) {
  WireResponse Resp;
  Resp.Id = 3;
  Resp.Result.ParseOk = false;
  Resp.Result.ParseError = "unbalanced parenthesis";
  Resp.Result.Result.Status = SolveStatus::Unsupported;
  Resp.Result.Result.Stop = StopReason::ParseError;
  std::vector<uint8_t> Wire;
  encodeResponse(Wire, Resp);
  FrameReader Reader;
  Reader.feed(Wire.data(), Wire.size());
  Frame F;
  ASSERT_TRUE(Reader.next(F));
  std::optional<WireResponse> Back = decodeResponse(F.Payload);
  ASSERT_TRUE(Back.has_value());
  EXPECT_FALSE(Back->Result.ParseOk);
  EXPECT_EQ(Back->Result.ParseError, "unbalanced parenthesis");
  EXPECT_EQ(renderVerdictLine(3, Back->Result), "3 parse_error");
}

TEST(DistProtocolTest, ControlFramesHaveNoPayload) {
  std::vector<uint8_t> Wire;
  encodeReady(Wire);
  encodeShutdown(Wire);
  FrameReader Reader;
  Reader.feed(Wire.data(), Wire.size());
  Frame F;
  ASSERT_TRUE(Reader.next(F));
  EXPECT_EQ(F.Type, FrameType::Ready);
  EXPECT_TRUE(F.Payload.empty());
  ASSERT_TRUE(Reader.next(F));
  EXPECT_EQ(F.Type, FrameType::Shutdown);
  EXPECT_TRUE(F.Payload.empty());
  EXPECT_TRUE(Reader.idle());
}

//===----------------------------------------------------------------------===//
// Fragmentation, truncation, corruption
//===----------------------------------------------------------------------===//

TEST(DistProtocolTest, InterleavedPartialReads) {
  // Three frames delivered one byte at a time: every frame must surface
  // exactly once, in order, regardless of fragmentation.
  std::vector<uint8_t> Wire;
  encodeReady(Wire);
  encodeRequest(Wire, sampleRequest());
  encodeResponse(Wire, sampleResponse());

  FrameReader Reader;
  std::vector<FrameType> Seen;
  Frame F;
  for (uint8_t B : Wire) {
    Reader.feed(&B, 1);
    while (Reader.next(F))
      Seen.push_back(F.Type);
  }
  ASSERT_EQ(Seen.size(), 3u);
  EXPECT_EQ(Seen[0], FrameType::Ready);
  EXPECT_EQ(Seen[1], FrameType::Request);
  EXPECT_EQ(Seen[2], FrameType::Response);
  EXPECT_TRUE(Reader.idle());
  EXPECT_FALSE(Reader.error());
}

TEST(DistProtocolTest, TruncatedFrameIsDetectable) {
  std::vector<uint8_t> Wire;
  encodeRequest(Wire, sampleRequest());
  // Drop the last byte: the reader must neither yield the frame nor
  // report a clean boundary — exactly the EOF-mid-frame signal the worker
  // loop treats as a protocol error.
  FrameReader Reader;
  Reader.feed(Wire.data(), Wire.size() - 1);
  Frame F;
  EXPECT_FALSE(Reader.next(F));
  EXPECT_FALSE(Reader.error());
  EXPECT_FALSE(Reader.idle());
  EXPECT_EQ(Reader.buffered(), Wire.size() - 1);
  // Feeding the missing byte completes the frame.
  Reader.feed(&Wire[Wire.size() - 1], 1);
  EXPECT_TRUE(Reader.next(F));
  EXPECT_TRUE(Reader.idle());
}

TEST(DistProtocolTest, OversizedFramePoisonsTheStream) {
  // A corrupted length prefix far beyond MaxFramePayload must be refused
  // before any allocation, and the reader must stay poisoned.
  std::vector<uint8_t> Wire = {0xFF, 0xFF, 0xFF, 0xFF,
                               static_cast<uint8_t>(FrameType::Request)};
  FrameReader Reader;
  Reader.feed(Wire.data(), Wire.size());
  Frame F;
  EXPECT_FALSE(Reader.next(F));
  EXPECT_TRUE(Reader.error());
  EXPECT_NE(Reader.errorMessage().find("oversized"), std::string::npos);
  // Even valid bytes afterwards never yield another frame.
  std::vector<uint8_t> Valid;
  encodeReady(Valid);
  Reader.feed(Valid.data(), Valid.size());
  EXPECT_FALSE(Reader.next(F));
}

TEST(DistProtocolTest, UnknownFrameTypePoisonsTheStream) {
  std::vector<uint8_t> Wire = {0, 0, 0, 0, 99};
  FrameReader Reader;
  Reader.feed(Wire.data(), Wire.size());
  Frame F;
  EXPECT_FALSE(Reader.next(F));
  EXPECT_TRUE(Reader.error());
  EXPECT_NE(Reader.errorMessage().find("unknown frame type"),
            std::string::npos);
}

TEST(DistProtocolTest, MalformedPayloadsDecodeToNullopt) {
  // Truncated request payload.
  std::vector<uint8_t> Wire;
  encodeRequest(Wire, sampleRequest());
  std::vector<uint8_t> Payload(Wire.begin() + 5, Wire.end());
  ASSERT_TRUE(decodeRequest(Payload).has_value());
  std::vector<uint8_t> Short(Payload.begin(), Payload.end() - 1);
  EXPECT_FALSE(decodeRequest(Short).has_value());
  // Trailing garbage, e.g. the flags byte older encoders appended.
  std::vector<uint8_t> Long = Payload;
  Long.push_back(0);
  EXPECT_FALSE(decodeRequest(Long).has_value());
  // Out-of-range enum.
  std::vector<uint8_t> BadStrat = Payload;
  BadStrat.back() = 0xEE; // Strategy byte
  EXPECT_FALSE(decodeRequest(BadStrat).has_value());

  // Response with a witness count pointing past the payload.
  std::vector<uint8_t> RWire;
  encodeResponse(RWire, sampleResponse());
  std::vector<uint8_t> RPayload(RWire.begin() + 5, RWire.end());
  ASSERT_TRUE(decodeResponse(RPayload).has_value());
  std::vector<uint8_t> BadCount = RPayload;
  BadCount[BadCount.size() - 3 * 4 - 4] = 0xFF; // witness count low byte
  EXPECT_FALSE(decodeResponse(BadCount).has_value());
}

//===----------------------------------------------------------------------===//
// Verdict-line rendering
//===----------------------------------------------------------------------===//

TEST(DistProtocolTest, VerdictLineFormat) {
  BatchResult R;
  R.ParseOk = true;
  R.Result.Status = SolveStatus::Unsat;
  EXPECT_EQ(renderVerdictLine(0, R), "0 unsat");

  R.Result.Status = SolveStatus::Sat;
  R.Result.Witness = {97, 98};
  EXPECT_EQ(renderVerdictLine(1, R), "1 sat 97,98");

  R.Result.Witness.clear(); // the empty-string witness
  EXPECT_EQ(renderVerdictLine(2, R), "2 sat .");

  R.Result.Status = SolveStatus::Unknown;
  EXPECT_EQ(renderVerdictLine(3, R), "3 unknown");

  // Run-dependent details (timings, engine) must not leak into the line.
  BatchResult A = R, B = R;
  A.Result.TimeUs = 1;
  B.Result.TimeUs = 99999;
  A.Result.Stats.Engine = SolveEngine::DerivBfs;
  B.Result.Stats.Engine = SolveEngine::Antimirov;
  EXPECT_EQ(renderVerdictLine(4, A), renderVerdictLine(4, B));
}

} // namespace
