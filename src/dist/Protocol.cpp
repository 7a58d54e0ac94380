//===- dist/Protocol.cpp - Framed coordinator/worker wire protocol ----------===//

#include "dist/Protocol.h"

#include <cstring>

using namespace sbd;
using namespace sbd::dist;

//===----------------------------------------------------------------------===//
// Primitive put/get helpers
//===----------------------------------------------------------------------===//

namespace {

void putU8(std::vector<uint8_t> &Out, uint8_t V) { Out.push_back(V); }

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  Out.push_back(static_cast<uint8_t>(V));
  Out.push_back(static_cast<uint8_t>(V >> 8));
  Out.push_back(static_cast<uint8_t>(V >> 16));
  Out.push_back(static_cast<uint8_t>(V >> 24));
}

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  putU32(Out, static_cast<uint32_t>(V));
  putU32(Out, static_cast<uint32_t>(V >> 32));
}

void putI64(std::vector<uint8_t> &Out, int64_t V) {
  putU64(Out, static_cast<uint64_t>(V));
}

void putStr(std::vector<uint8_t> &Out, const std::string &S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out.insert(Out.end(), S.begin(), S.end());
}

/// Bounds-checked cursor over a payload; any read past the end trips Ok.
struct Cursor {
  const std::vector<uint8_t> &Buf;
  size_t Pos = 0;
  bool Ok = true;

  explicit Cursor(const std::vector<uint8_t> &B) : Buf(B) {}

  bool need(size_t N) {
    if (!Ok || Buf.size() - Pos < N) {
      Ok = false;
      return false;
    }
    return true;
  }

  uint8_t u8() {
    if (!need(1))
      return 0;
    return Buf[Pos++];
  }

  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = static_cast<uint32_t>(Buf[Pos]) |
                 static_cast<uint32_t>(Buf[Pos + 1]) << 8 |
                 static_cast<uint32_t>(Buf[Pos + 2]) << 16 |
                 static_cast<uint32_t>(Buf[Pos + 3]) << 24;
    Pos += 4;
    return V;
  }

  uint64_t u64() {
    uint64_t Lo = u32();
    uint64_t Hi = u32();
    return Lo | (Hi << 32);
  }

  int64_t i64() { return static_cast<int64_t>(u64()); }

  std::string str() {
    uint32_t N = u32();
    if (!need(N))
      return {};
    std::string S(reinterpret_cast<const char *>(Buf.data() + Pos), N);
    Pos += N;
    return S;
  }

  /// Fully consumed with no trailing garbage?
  bool done() const { return Ok && Pos == Buf.size(); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

void dist::appendFrame(std::vector<uint8_t> &Out, FrameType Type,
                       const uint8_t *Payload, size_t Len) {
  putU32(Out, static_cast<uint32_t>(Len));
  putU8(Out, static_cast<uint8_t>(Type));
  if (Len)
    Out.insert(Out.end(), Payload, Payload + Len);
}

void dist::encodeReady(std::vector<uint8_t> &Out) {
  appendFrame(Out, FrameType::Ready, nullptr, 0);
}

void dist::encodeShutdown(std::vector<uint8_t> &Out) {
  appendFrame(Out, FrameType::Shutdown, nullptr, 0);
}

void dist::encodeRequest(std::vector<uint8_t> &Out, const WireRequest &Req) {
  std::vector<uint8_t> P;
  putU64(P, Req.Id);
  putStr(P, Req.Pattern);
  putI64(P, Req.Opts.TimeoutMs);
  putU64(P, Req.Opts.MaxStates);
  putU8(P, static_cast<uint8_t>(Req.Opts.Strategy));
  appendFrame(Out, FrameType::Request, P.data(), P.size());
}

std::optional<WireRequest>
dist::decodeRequest(const std::vector<uint8_t> &Payload) {
  Cursor C(Payload);
  WireRequest Req;
  Req.Id = C.u64();
  Req.Pattern = C.str();
  Req.Opts.TimeoutMs = C.i64();
  Req.Opts.MaxStates = static_cast<size_t>(C.u64());
  uint8_t Strat = C.u8();
  if (!C.done() || Strat > static_cast<uint8_t>(SearchStrategy::Dfs))
    return std::nullopt;
  Req.Opts.Strategy = static_cast<SearchStrategy>(Strat);
  return Req;
}

void dist::encodeResponse(std::vector<uint8_t> &Out, const WireResponse &Resp) {
  std::vector<uint8_t> P;
  const BatchResult &R = Resp.Result;
  putU64(P, Resp.Id);
  putU8(P, R.ParseOk ? 1 : 0);
  putStr(P, R.ParseError);
  putU8(P, static_cast<uint8_t>(R.Result.Status));
  putU8(P, static_cast<uint8_t>(R.Result.Stop));
  putU8(P, static_cast<uint8_t>(R.Result.Stats.Engine));
  putStr(P, R.Result.Note);
  putU64(P, R.Result.StatesExplored);
  putI64(P, R.Result.TimeUs);
  putI64(P, R.Result.Stats.TotalUs);
  putU32(P, static_cast<uint32_t>(R.Result.Witness.size()));
  for (uint32_t Cp : R.Result.Witness)
    putU32(P, Cp);
  appendFrame(Out, FrameType::Response, P.data(), P.size());
}

std::optional<WireResponse>
dist::decodeResponse(const std::vector<uint8_t> &Payload) {
  Cursor C(Payload);
  WireResponse Resp;
  BatchResult &R = Resp.Result;
  Resp.Id = C.u64();
  R.ParseOk = C.u8() != 0;
  R.ParseError = C.str();
  uint8_t Status = C.u8();
  uint8_t Stop = C.u8();
  uint8_t Engine = C.u8();
  R.Result.Note = C.str();
  R.Result.StatesExplored = static_cast<size_t>(C.u64());
  R.Result.TimeUs = C.i64();
  R.Result.Stats.TotalUs = C.i64();
  uint32_t N = C.u32();
  // A witness longer than the remaining payload is a corrupted count.
  if (!C.Ok || Payload.size() - C.Pos < size_t{N} * 4)
    return std::nullopt;
  R.Result.Witness.reserve(N);
  for (uint32_t I = 0; I != N; ++I)
    R.Result.Witness.push_back(C.u32());
  if (!C.done() || Status > static_cast<uint8_t>(SolveStatus::Unsupported) ||
      Stop > static_cast<uint8_t>(StopReason::RevalidationFailed) ||
      Engine >= NumSolveEngines)
    return std::nullopt;
  R.Result.Status = static_cast<SolveStatus>(Status);
  R.Result.Stop = static_cast<StopReason>(Stop);
  R.Result.Stats.Engine = static_cast<SolveEngine>(Engine);
  return Resp;
}

//===----------------------------------------------------------------------===//
// FrameReader
//===----------------------------------------------------------------------===//

void FrameReader::feed(const uint8_t *Data, size_t Len) {
  if (error())
    return;
  // Reclaim the consumed prefix before growing (bounded memory on
  // long-lived streams).
  if (Pos > 0 && (Pos == Buf.size() || Pos >= 4096)) {
    Buf.erase(Buf.begin(), Buf.begin() + static_cast<ptrdiff_t>(Pos));
    Pos = 0;
  }
  Buf.insert(Buf.end(), Data, Data + Len);
}

bool FrameReader::next(Frame &Out) {
  if (error() || Buf.size() - Pos < FrameHeaderBytes)
    return false;
  uint32_t Len = static_cast<uint32_t>(Buf[Pos]) |
                 static_cast<uint32_t>(Buf[Pos + 1]) << 8 |
                 static_cast<uint32_t>(Buf[Pos + 2]) << 16 |
                 static_cast<uint32_t>(Buf[Pos + 3]) << 24;
  uint8_t Type = Buf[Pos + 4];
  if (Len > MaxFramePayload) {
    Error = "oversized frame: " + std::to_string(Len) + " bytes";
    return false;
  }
  if (Type < static_cast<uint8_t>(FrameType::Ready) ||
      Type > static_cast<uint8_t>(FrameType::Shutdown)) {
    Error = "unknown frame type " + std::to_string(Type);
    return false;
  }
  if (Buf.size() - Pos - FrameHeaderBytes < Len)
    return false; // header seen, payload still in flight
  Out.Type = static_cast<FrameType>(Type);
  Out.Payload.assign(Buf.begin() + static_cast<ptrdiff_t>(Pos + FrameHeaderBytes),
                     Buf.begin() +
                         static_cast<ptrdiff_t>(Pos + FrameHeaderBytes + Len));
  Pos += FrameHeaderBytes + Len;
  return true;
}

//===----------------------------------------------------------------------===//
// Verdict stream rendering
//===----------------------------------------------------------------------===//

std::string dist::renderVerdictLine(size_t Index, const BatchResult &R) {
  std::string Out = std::to_string(Index);
  Out += ' ';
  if (!R.ParseOk) {
    Out += "parse_error";
    return Out;
  }
  Out += statusName(R.Result.Status);
  if (R.Result.isSat()) {
    Out += ' ';
    if (R.Result.Witness.empty()) {
      Out += '.';
    } else {
      for (size_t I = 0; I != R.Result.Witness.size(); ++I) {
        if (I)
          Out += ',';
        Out += std::to_string(R.Result.Witness[I]);
      }
    }
  }
  return Out;
}
