#include "net/protocol.hpp"

#include <algorithm>
#include <cstring>

namespace parspan::net {

namespace {

// Every request starts `op u8`; encoders build the body in place after it
// inside a frame-header-shaped hole, then seal.
std::vector<uint8_t> begin_request(Op op, size_t body_reserve) {
  std::vector<uint8_t> buf;
  buf.reserve(kFrameHeaderSize + 1 + body_reserve);
  buf.resize(kFrameHeaderSize);
  buf.push_back(static_cast<uint8_t>(op));
  return buf;
}

void finish_frame_into(std::vector<uint8_t>& out, std::vector<uint8_t> buf) {
  seal_frame(buf.data(), buf.size() - kFrameHeaderSize);
  out.insert(out.end(), buf.begin(), buf.end());
}

void put_key_list(std::vector<uint8_t>& buf, const std::vector<EdgeKey>& keys) {
  const size_t at = buf.size();
  buf.resize(at + ascending_list_bound(keys.size()));
  uint8_t* end =
      encode_ascending_list(keys.data(), keys.size(), buf.data() + at);
  buf.resize(size_t(end - buf.data()));
}

void put_submit_tail(std::vector<uint8_t>& buf, uint32_t graph_id,
                     const std::vector<EdgeKey>& ins,
                     const std::vector<EdgeKey>& del) {
  put_le32(buf, graph_id);
  put_le32(buf, uint32_t(ins.size()));
  put_le32(buf, uint32_t(del.size()));
  put_key_list(buf, ins);
  put_key_list(buf, del);
}

// Bounds-checked sequential reader over one payload. Every get_* returns
// false on underrun; decode fails closed instead of reading past the end.
struct Reader {
  const uint8_t* p;
  const uint8_t* end;
  bool get_u8(uint8_t* v) {
    if (end - p < 1) return false;
    *v = *p++;
    return true;
  }
  bool get_u32(uint32_t* v) {
    if (end - p < 4) return false;
    *v = get_le32(p);
    p += 4;
    return true;
  }
  bool get_u64(uint64_t* v) {
    if (end - p < 8) return false;
    *v = get_le64(p);
    p += 8;
    return true;
  }
  bool done() const { return p == end; }
};

bool get_submit_tail(Reader& r, Request* out) {
  uint32_t icnt = 0, dcnt = 0;
  if (!r.get_u32(&out->graph_id) || !r.get_u32(&icnt) || !r.get_u32(&dcnt))
    return false;
  return decode_ascending_list(&r.p, r.end, icnt, &out->insertions) &&
         decode_ascending_list(&r.p, r.end, dcnt, &out->deletions);
}

bool get_vv(Reader& r, std::vector<uint64_t>* out) {
  uint32_t cnt = 0;
  if (!r.get_u32(&cnt)) return false;
  if (uint64_t(cnt) * 8 > uint64_t(r.end - r.p)) return false;
  out->clear();
  out->reserve(cnt);
  for (uint32_t i = 0; i < cnt; ++i) {
    uint64_t v = 0;
    r.get_u64(&v);
    out->push_back(v);
  }
  return true;
}

void put_vv(std::vector<uint8_t>& buf, const std::vector<uint64_t>& vv) {
  put_le32(buf, uint32_t(vv.size()));
  for (uint64_t v : vv) put_le64(buf, v);
}

}  // namespace

// --- Request encoders -----------------------------------------------------

void encode_hello(std::vector<uint8_t>& out) {
  auto buf = begin_request(Op::kHello, 12);
  put_le64(buf, kMagic);
  put_le32(buf, kProtocolVersion);
  finish_frame_into(out, std::move(buf));
}

void encode_submit(std::vector<uint8_t>& out, uint32_t graph_id,
                   const std::vector<EdgeKey>& insertions,
                   const std::vector<EdgeKey>& deletions) {
  auto buf = begin_request(
      Op::kSubmit,
      12 + ascending_list_bound(insertions.size() + deletions.size()));
  put_submit_tail(buf, graph_id, insertions, deletions);
  finish_frame_into(out, std::move(buf));
}

void encode_submit_for(std::vector<uint8_t>& out, uint32_t graph_id,
                       const std::vector<EdgeKey>& insertions,
                       const std::vector<EdgeKey>& deletions,
                       uint32_t timeout_ms) {
  auto buf = begin_request(
      Op::kSubmitFor,
      16 + ascending_list_bound(insertions.size() + deletions.size()));
  put_le32(buf, timeout_ms);
  put_submit_tail(buf, graph_id, insertions, deletions);
  finish_frame_into(out, std::move(buf));
}

void encode_flush(std::vector<uint8_t>& out) {
  finish_frame_into(out, begin_request(Op::kFlush, 0));
}

void encode_pin(std::vector<uint8_t>& out, const std::vector<uint64_t>& vv) {
  auto buf = begin_request(Op::kPin, 4 + 8 * vv.size());
  put_vv(buf, vv);
  finish_frame_into(out, std::move(buf));
}

void encode_unpin(std::vector<uint8_t>& out, uint64_t pin_id) {
  auto buf = begin_request(Op::kUnpin, 8);
  put_le64(buf, pin_id);
  finish_frame_into(out, std::move(buf));
}

void encode_has_edge(std::vector<uint8_t>& out, uint64_t pin_id, VertexId u,
                     VertexId v) {
  auto buf = begin_request(Op::kHasEdge, 16);
  put_le64(buf, pin_id);
  put_le32(buf, u);
  put_le32(buf, v);
  finish_frame_into(out, std::move(buf));
}

void encode_neighbors(std::vector<uint8_t>& out, uint64_t pin_id, VertexId v) {
  auto buf = begin_request(Op::kNeighbors, 12);
  put_le64(buf, pin_id);
  put_le32(buf, v);
  finish_frame_into(out, std::move(buf));
}

void encode_bounded_bfs(std::vector<uint8_t>& out, uint64_t pin_id, VertexId u,
                        VertexId v, uint32_t limit) {
  auto buf = begin_request(Op::kBoundedBfs, 20);
  put_le64(buf, pin_id);
  put_le32(buf, u);
  put_le32(buf, v);
  put_le32(buf, limit);
  finish_frame_into(out, std::move(buf));
}

void encode_stats(std::vector<uint8_t>& out) {
  finish_frame_into(out, begin_request(Op::kStats, 0));
}

std::vector<EdgeKey> sort_unique_keys(const std::vector<Edge>& edges) {
  std::vector<EdgeKey> keys;
  keys.reserve(edges.size());
  for (const Edge& e : edges) keys.push_back(e.key());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// --- Request decode -------------------------------------------------------

bool decode_request(const uint8_t* payload, uint32_t len, Request* out) {
  Reader r{payload, payload + len};
  uint8_t op = 0;
  if (!r.get_u8(&op)) return false;
  *out = Request{};
  out->op = static_cast<Op>(op);
  switch (out->op) {
    case Op::kHello:
      if (!r.get_u64(&out->magic) || !r.get_u32(&out->version)) return false;
      break;
    case Op::kSubmit:
      if (!get_submit_tail(r, out)) return false;
      break;
    case Op::kSubmitFor:
      if (!r.get_u32(&out->timeout_ms) || !get_submit_tail(r, out))
        return false;
      break;
    case Op::kFlush:
    case Op::kStats:
      break;
    case Op::kPin:
      if (!get_vv(r, &out->vv)) return false;
      break;
    case Op::kUnpin:
      if (!r.get_u64(&out->pin_id)) return false;
      break;
    case Op::kHasEdge:
      if (!r.get_u64(&out->pin_id) || !r.get_u32(&out->u) || !r.get_u32(&out->v))
        return false;
      break;
    case Op::kNeighbors:
      if (!r.get_u64(&out->pin_id) || !r.get_u32(&out->v)) return false;
      break;
    case Op::kBoundedBfs:
      if (!r.get_u64(&out->pin_id) || !r.get_u32(&out->u) ||
          !r.get_u32(&out->v) || !r.get_u32(&out->limit))
        return false;
      break;
    default:
      return false;  // unknown op
  }
  // Trailing bytes prove the frame malformed — nothing on this wire pads.
  return r.done();
}

// --- Response encoders ----------------------------------------------------

namespace {

void append_response(std::vector<uint8_t>& out, uint32_t seq, Status status,
                     const uint8_t* body, size_t body_len) {
  const size_t at = out.size();
  out.resize(at + kFrameHeaderSize + 5 + body_len);
  uint8_t* payload = out.data() + at + kFrameHeaderSize;
  store_le32(payload, seq);
  payload[4] = static_cast<uint8_t>(status);
  // An empty body may be a null pointer, which memcpy must never see.
  if (body_len != 0) std::memcpy(payload + 5, body, body_len);
  seal_frame(out.data() + at, 5 + body_len);
}

}  // namespace

void append_ok(std::vector<uint8_t>& out, uint32_t seq,
               const std::vector<uint8_t>& body) {
  append_response(out, seq, Status::kOk, body.data(), body.size());
}

void append_retry_after(std::vector<uint8_t>& out, uint32_t seq,
                        uint32_t retry_after_ms) {
  uint8_t body[4];
  store_le32(body, retry_after_ms);
  append_response(out, seq, Status::kRetryAfter, body, sizeof(body));
}

void append_error(std::vector<uint8_t>& out, uint32_t seq,
                  const std::string& message) {
  std::vector<uint8_t> body;
  body.reserve(4 + message.size());
  put_le32(body, uint32_t(message.size()));
  body.insert(body.end(), message.begin(), message.end());
  append_response(out, seq, Status::kError, body.data(), body.size());
}

std::vector<uint8_t> build_hello_body(const HelloInfo& info) {
  std::vector<uint8_t> body;
  put_le32(body, info.num_shards);
  body.push_back(info.single_graph ? 1 : 0);
  put_le64(body, info.vertex_space);
  return body;
}

std::vector<uint8_t> build_vv_body(const std::vector<uint64_t>& vv) {
  std::vector<uint8_t> body;
  put_vv(body, vv);
  return body;
}

std::vector<uint8_t> build_pin_body(uint64_t pin_id,
                                    const std::vector<uint64_t>& vv) {
  std::vector<uint8_t> body;
  put_le64(body, pin_id);
  put_vv(body, vv);
  return body;
}

std::vector<uint8_t> build_has_edge_body(bool present) {
  return {present ? uint8_t(1) : uint8_t(0)};
}

std::vector<uint8_t> build_neighbors_body(const std::vector<VertexId>& ids) {
  std::vector<uint8_t> body;
  put_le32(body, uint32_t(ids.size()));
  const size_t at = body.size();
  body.resize(at + ascending_list_bound(ids.size()));
  uint8_t* end = encode_ascending_list(ids.data(), ids.size(), body.data() + at);
  body.resize(size_t(end - body.data()));
  return body;
}

std::vector<uint8_t> build_dist_body(uint32_t dist) {
  std::vector<uint8_t> body;
  put_le32(body, dist);
  return body;
}

std::vector<uint8_t> build_stats_body(const StatsInfo& stats) {
  std::vector<uint8_t> body;
  put_le32(body, stats.hello.num_shards);
  body.push_back(stats.hello.single_graph ? 1 : 0);
  put_le64(body, stats.hello.vertex_space);
  put_le64(body, stats.edges_ingested);
  put_le64(body, stats.edges_rejected);
  put_le64(body, stats.edges_timed_out);
  put_vv(body, stats.versions);
  put_le32(body, stats.active_connections);
  put_le64(body, stats.protocol_errors);
  return body;
}

// --- Response decode ------------------------------------------------------

bool decode_response(const uint8_t* payload, uint32_t len, Response* out) {
  if (len < 5) return false;
  out->seq = get_le32(payload);
  const uint8_t status = payload[4];
  if (status > static_cast<uint8_t>(Status::kError)) return false;
  out->status = static_cast<Status>(status);
  out->body = payload + 5;
  out->body_len = len - 5;
  return true;
}

namespace {
Reader body_reader(const Response& r) { return {r.body, r.body + r.body_len}; }

bool get_hello(Reader& r, HelloInfo* out) {
  uint8_t single = 0;
  if (!r.get_u32(&out->num_shards) || !r.get_u8(&single) ||
      !r.get_u64(&out->vertex_space))
    return false;
  out->single_graph = single != 0;
  return true;
}
}  // namespace

bool parse_hello_body(const Response& r, HelloInfo* out) {
  Reader rd = body_reader(r);
  return get_hello(rd, out) && rd.done();
}

bool parse_vv_body(const Response& r, std::vector<uint64_t>* out) {
  Reader rd = body_reader(r);
  return get_vv(rd, out) && rd.done();
}

bool parse_pin_body(const Response& r, uint64_t* pin_id,
                    std::vector<uint64_t>* vv) {
  Reader rd = body_reader(r);
  return rd.get_u64(pin_id) && get_vv(rd, vv) && rd.done();
}

bool parse_has_edge_body(const Response& r, bool* present) {
  if (r.body_len != 1 || r.body[0] > 1) return false;
  *present = r.body[0] != 0;
  return true;
}

bool parse_neighbors_body(const Response& r, std::vector<VertexId>* out) {
  Reader rd = body_reader(r);
  uint32_t cnt = 0;
  if (!rd.get_u32(&cnt)) return false;
  return decode_ascending_list(&rd.p, rd.end, cnt, out) && rd.done();
}

bool parse_dist_body(const Response& r, uint32_t* dist) {
  Reader rd = body_reader(r);
  return rd.get_u32(dist) && rd.done();
}

bool parse_stats_body(const Response& r, StatsInfo* out) {
  Reader rd = body_reader(r);
  return get_hello(rd, &out->hello) && rd.get_u64(&out->edges_ingested) &&
         rd.get_u64(&out->edges_rejected) && rd.get_u64(&out->edges_timed_out) &&
         get_vv(rd, &out->versions) && rd.get_u32(&out->active_connections) &&
         rd.get_u64(&out->protocol_errors) && rd.done();
}

bool parse_retry_after_body(const Response& r, uint32_t* retry_after_ms) {
  if (r.status != Status::kRetryAfter) return false;
  Reader rd = body_reader(r);
  return rd.get_u32(retry_after_ms) && rd.done();
}

bool parse_error_body(const Response& r, std::string* message) {
  if (r.status != Status::kError) return false;
  Reader rd = body_reader(r);
  uint32_t len = 0;
  if (!rd.get_u32(&len) || uint64_t(len) != uint64_t(rd.end - rd.p))
    return false;
  message->assign(reinterpret_cast<const char*>(rd.p), len);
  return true;
}

}  // namespace parspan::net
