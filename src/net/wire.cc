#include "src/net/wire.h"

#include "src/util/crc32.h"

namespace ms {
namespace net {

namespace {

// All integers little-endian via memcpy; the CI fleet is little-endian and
// the format says so explicitly, so a big-endian port would byte-swap here.
template <typename T>
void Append(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

/// Bounds-checked payload reader: every Read validates remaining bytes.
class Reader {
 public:
  explicit Reader(const std::string& s) : data_(s.data()), size_(s.size()) {}

  template <typename T>
  bool Read(T* out) {
    if (size_ - pos_ < sizeof(T)) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadFloats(std::vector<float>* out, size_t n) {
    if ((size_ - pos_) / sizeof(float) < n) return false;
    out->resize(n);
    // An empty vector's data() may be null, which memcpy must not see.
    if (n > 0) std::memcpy(out->data(), data_ + pos_, n * sizeof(float));
    pos_ += n * sizeof(float);
    return true;
  }

  bool ReadDoubles(std::vector<double>* out, size_t n) {
    if ((size_ - pos_) / sizeof(double) < n) return false;
    out->resize(n);
    // An empty vector's data() may be null, which memcpy must not see.
    if (n > 0) std::memcpy(out->data(), data_ + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
    return true;
  }

  bool AtEnd() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status ShortPayload(const char* what) {
  return Status::InvalidArgument(std::string("short or trailing bytes in ") +
                                 what + " payload");
}

}  // namespace

void EncodeFrame(FrameType type, const std::string& payload,
                 std::string* out) {
  MS_CHECK(payload.size() <= kMaxPayload);
  Append<uint16_t>(out, kWireMagic);
  Append<uint8_t>(out, kWireVersion);
  Append<uint8_t>(out, static_cast<uint8_t>(type));
  Append<uint32_t>(out, static_cast<uint32_t>(payload.size()));
  Append<uint32_t>(out, Crc32(payload.data(), payload.size()));
  out->append(payload);
}

std::string EncodeRequest(const RequestMsg& msg) {
  std::string payload;
  Append<uint64_t>(&payload, msg.id);
  Append<double>(&payload, msg.deadline_seconds);
  Append<uint32_t>(&payload, static_cast<uint32_t>(msg.payload.size()));
  payload.append(reinterpret_cast<const char*>(msg.payload.data()),
                 msg.payload.size() * sizeof(float));
  std::string out;
  EncodeFrame(FrameType::kRequest, payload, &out);
  return out;
}

std::string EncodeReply(const ReplyMsg& msg) {
  std::string payload;
  Append<uint64_t>(&payload, msg.id);
  Append<uint8_t>(&payload, static_cast<uint8_t>(msg.admit));
  Append<uint8_t>(&payload, static_cast<uint8_t>(msg.outcome));
  Append<float>(&payload, msg.rate);
  std::string out;
  EncodeFrame(FrameType::kReply, payload, &out);
  return out;
}

std::string EncodeStats(const StatsMsg& msg) {
  std::string payload;
  Append<uint8_t>(&payload, static_cast<uint8_t>(msg.role));
  Append<uint8_t>(&payload, msg.breaker_open);
  Append<uint16_t>(&payload, msg.healthy_workers);
  Append<uint16_t>(&payload, msg.total_workers);
  Append<int64_t>(&payload, msg.queue_depth);
  Append<int64_t>(&payload, msg.queue_capacity);
  Append<int64_t>(&payload, msg.submitted);
  Append<int64_t>(&payload, msg.accepted);
  Append<int64_t>(&payload, msg.served);
  Append<int64_t>(&payload, msg.shed);
  Append<int64_t>(&payload, msg.expired);
  Append<int64_t>(&payload, msg.rejected);
  Append<int64_t>(&payload, msg.failed);
  Append<int64_t>(&payload, msg.quarantined);
  Append<int64_t>(&payload, msg.repaired);
  Append<double>(&payload, msg.calibrated_t);
  Append<double>(&payload, msg.calibrated_t_int8);
  Append<double>(&payload, msg.tick_seconds);
  Append<uint32_t>(&payload, static_cast<uint32_t>(msg.rates.size()));
  payload.append(reinterpret_cast<const char*>(msg.rates.data()),
                 msg.rates.size() * sizeof(double));
  Append<uint32_t>(&payload, static_cast<uint32_t>(msg.shards.size()));
  for (const ShardView& s : msg.shards) {
    Append<uint8_t>(&payload, s.up);
    Append<int64_t>(&payload, s.forwarded);
    Append<int64_t>(&payload, s.outstanding);
    Append<int64_t>(&payload, s.served);
    Append<int64_t>(&payload, s.shed);
    Append<int64_t>(&payload, s.expired);
    Append<int64_t>(&payload, s.failed);
    Append<int64_t>(&payload, s.rejected);
    Append<int64_t>(&payload, s.lost);
    Append<int64_t>(&payload, s.drains);
    Append<int64_t>(&payload, s.readmits);
    Append<int64_t>(&payload, s.timeouts);
    Append<int64_t>(&payload, s.failovers);
    Append<int64_t>(&payload, s.hedges);
  }
  Append<int64_t>(&payload, msg.timeouts);
  Append<int64_t>(&payload, msg.failovers);
  Append<int64_t>(&payload, msg.hedges);
  Append<int64_t>(&payload, msg.hedge_wins);
  Append<int64_t>(&payload, msg.dup_replies);
  std::string out;
  EncodeFrame(FrameType::kStatsReply, payload, &out);
  return out;
}

std::string EncodeControl(const ControlMsg& msg) {
  std::string payload;
  Append<uint64_t>(&payload, msg.id);
  Append<uint8_t>(&payload, static_cast<uint8_t>(msg.op));
  Append<uint64_t>(&payload, msg.seed);
  Append<uint32_t>(&payload, static_cast<uint32_t>(msg.spec.size()));
  payload.append(msg.spec);
  std::string out;
  EncodeFrame(FrameType::kControl, payload, &out);
  return out;
}

Status DecodeRequest(const std::string& payload, RequestMsg* out) {
  Reader r(payload);
  uint32_t count = 0;
  if (!r.Read(&out->id) || !r.Read(&out->deadline_seconds) ||
      !r.Read(&count) || !r.ReadFloats(&out->payload, count) || !r.AtEnd()) {
    return ShortPayload("request");
  }
  return Status::OK();
}

Status DecodeReply(const std::string& payload, ReplyMsg* out) {
  Reader r(payload);
  uint8_t admit = 0, outcome = 0;
  if (!r.Read(&out->id) || !r.Read(&admit) || !r.Read(&outcome) ||
      !r.Read(&out->rate) || !r.AtEnd()) {
    return ShortPayload("reply");
  }
  if (admit > static_cast<uint8_t>(AdmitResult::kRejectedInvalid) ||
      outcome > static_cast<uint8_t>(RequestOutcome::kFailed)) {
    return Status::InvalidArgument("reply carries an unknown code");
  }
  out->admit = static_cast<AdmitResult>(admit);
  out->outcome = static_cast<RequestOutcome>(outcome);
  return Status::OK();
}

Status DecodeStats(const std::string& payload, StatsMsg* out) {
  Reader r(payload);
  uint8_t role = 0;
  uint32_t num_rates = 0, num_shards = 0;
  if (!r.Read(&role) || !r.Read(&out->breaker_open) ||
      !r.Read(&out->healthy_workers) || !r.Read(&out->total_workers) ||
      !r.Read(&out->queue_depth) || !r.Read(&out->queue_capacity) ||
      !r.Read(&out->submitted) || !r.Read(&out->accepted) ||
      !r.Read(&out->served) || !r.Read(&out->shed) ||
      !r.Read(&out->expired) || !r.Read(&out->rejected) ||
      !r.Read(&out->failed) || !r.Read(&out->quarantined) ||
      !r.Read(&out->repaired) || !r.Read(&out->calibrated_t) ||
      !r.Read(&out->calibrated_t_int8) || !r.Read(&out->tick_seconds) ||
      !r.Read(&num_rates) ||
      !r.ReadDoubles(&out->rates, num_rates) || !r.Read(&num_shards)) {
    return ShortPayload("stats");
  }
  if (role != static_cast<uint8_t>(StatsRole::kShard) &&
      role != static_cast<uint8_t>(StatsRole::kRouter)) {
    return Status::InvalidArgument("stats carries an unknown role");
  }
  out->role = static_cast<StatsRole>(role);
  out->shards.clear();
  out->shards.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    ShardView s;
    if (!r.Read(&s.up) || !r.Read(&s.forwarded) || !r.Read(&s.outstanding) ||
        !r.Read(&s.served) || !r.Read(&s.shed) || !r.Read(&s.expired) ||
        !r.Read(&s.failed) || !r.Read(&s.rejected) || !r.Read(&s.lost) ||
        !r.Read(&s.drains) || !r.Read(&s.readmits) || !r.Read(&s.timeouts) ||
        !r.Read(&s.failovers) || !r.Read(&s.hedges)) {
      return ShortPayload("stats shard view");
    }
    out->shards.push_back(s);
  }
  if (!r.Read(&out->timeouts) || !r.Read(&out->failovers) ||
      !r.Read(&out->hedges) || !r.Read(&out->hedge_wins) ||
      !r.Read(&out->dup_replies) || !r.AtEnd()) {
    return ShortPayload("stats");
  }
  return Status::OK();
}

Status DecodeControl(const std::string& payload, ControlMsg* out) {
  Reader r(payload);
  uint8_t op = 0;
  uint32_t len = 0;
  if (!r.Read(&out->id) || !r.Read(&op) || !r.Read(&out->seed) ||
      !r.Read(&len)) {
    return ShortPayload("control");
  }
  if (op != static_cast<uint8_t>(ControlOp::kArmFaults) &&
      op != static_cast<uint8_t>(ControlOp::kDisarmFaults)) {
    return Status::InvalidArgument("control carries an unknown op");
  }
  out->op = static_cast<ControlOp>(op);
  if (payload.size() < 21 || payload.size() - 21 != len) {
    return ShortPayload("control");
  }
  out->spec = payload.substr(21, len);
  return Status::OK();
}

DecodeResult FrameDecoder::Next(Frame* out) {
  if (fatal_) return DecodeResult::kFatal;
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer forever.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 64 * 1024)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  const size_t avail = buf_.size() - pos_;
  if (avail < kHeaderBytes) return DecodeResult::kNeedMore;
  const char* h = buf_.data() + pos_;
  uint16_t magic;
  uint8_t version, type;
  uint32_t length, crc;
  std::memcpy(&magic, h, 2);
  std::memcpy(&version, h + 2, 1);
  std::memcpy(&type, h + 3, 1);
  std::memcpy(&length, h + 4, 4);
  std::memcpy(&crc, h + 8, 4);
  if (magic != kWireMagic || length > kMaxPayload) {
    // The stream is garbage: there is no frame boundary to resynchronize
    // on.
    fatal_ = true;
    bad_request_id_ = 0;
    return DecodeResult::kFatal;
  }
  if (avail < kHeaderBytes + length) return DecodeResult::kNeedMore;
  const char* payload = h + kHeaderBytes;
  // The header layout is version-invariant by fiat (wire.h), so a
  // mismatched version still gives a trustworthy frame boundary: consume
  // the whole frame and classify it recoverable rather than poisoning the
  // connection.
  const bool version_ok = version == kWireVersion;
  const bool crc_ok = Crc32(payload, length) == crc;
  const bool type_ok =
      type >= static_cast<uint8_t>(FrameType::kRequest) &&
      type <= static_cast<uint8_t>(FrameType::kControl);
  pos_ += kHeaderBytes + length;
  if (!version_ok || !crc_ok || !type_ok) {
    // Boundary was intact, so salvage the request id when the payload is
    // long enough to carry one — the reject reply can then name it.
    bad_request_id_ = 0;
    if (length >= sizeof(uint64_t)) {
      std::memcpy(&bad_request_id_, payload, sizeof(uint64_t));
    }
    return DecodeResult::kBadFrame;
  }
  out->type = static_cast<FrameType>(type);
  out->payload.assign(payload, length);
  return DecodeResult::kFrame;
}

}  // namespace net
}  // namespace ms
