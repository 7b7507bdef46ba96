#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench_common.h"
#include "proto/opcodes.h"

namespace qbench {
namespace {

// The frame header of net/message.h's WireCodec: u16 type, u64 correlation
// id, u64 query id, little-endian. Only the header is read, so tracing
// costs the same for a 100-byte frame and a 1-MiB one.
bool ParseHeader(const std::vector<uint8_t>& frame, uint16_t* type,
                 uint64_t* correlation_id, uint64_t* query_id) {
  if (frame.size() < 18) return false;
  auto u64 = [&frame](std::size_t at) {
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | frame[at + i];
    return v;
  };
  *type = static_cast<uint16_t>(frame[0] | (frame[1] << 8));
  *correlation_id = u64(2);
  *query_id = u64(10);
  return true;
}

}  // namespace

std::string OpcodeName(uint16_t opcode) {
  using sknn::Op;
  switch (static_cast<Op>(opcode)) {
    case Op::kPing: return "ping";
    case Op::kSmBatch: return "sm_batch";
    case Op::kLsbBatch: return "lsb_batch";
    case Op::kSvrCheckBatch: return "svr_check_batch";
    case Op::kSminPhase2Batch: return "smin_phase2_batch";
    case Op::kMinPointerBatch: return "min_pointer_batch";
    case Op::kTopKIndices: return "top_k_indices";
    case Op::kMaskedDecryptToBob: return "masked_decrypt_to_bob";
    case Op::kFetchBobOutbox: return "fetch_bob_outbox";
    case Op::kSmVec: return "sm_vec";
    case Op::kLsbVec: return "lsb_vec";
    case Op::kSminPhase2Vec: return "smin_phase2_vec";
    case Op::kFetchQueryOps: return "fetch_query_ops";
    case Op::kFetchPoolStats: return "fetch_pool_stats";
    default: return "op" + std::to_string(opcode);
  }
}

const std::vector<uint16_t>& ReportedOpcodes() {
  using sknn::Op;
  using sknn::OpCode;
  // The opcodes a query sends with the default (vectorized) rounds.
  static const std::vector<uint16_t> kOps = {
      OpCode(Op::kSmVec),         OpCode(Op::kLsbVec),
      OpCode(Op::kSvrCheckBatch), OpCode(Op::kSminPhase2Vec),
      OpCode(Op::kMinPointerBatch), OpCode(Op::kTopKIndices),
      OpCode(Op::kMaskedDecryptToBob), OpCode(Op::kFetchBobOutbox),
      OpCode(Op::kFetchQueryOps)};
  return kOps;
}

void Tracer::OnSend(const std::vector<uint8_t>& frame) {
  Exchange e;
  if (!ParseHeader(frame, &e.opcode, &e.correlation_id, &e.query_id)) return;
  e.request_bytes = frame.size();
  e.send = Now();
  sknn::MutexLock lock(&mutex_);
  open_[e.correlation_id] = e;
}

void Tracer::OnRecv(const std::vector<uint8_t>& frame) {
  const double now = Now();
  uint16_t type = 0;
  uint64_t correlation_id = 0, query_id = 0;
  if (!ParseHeader(frame, &type, &correlation_id, &query_id)) return;
  sknn::MutexLock lock(&mutex_);
  auto it = open_.find(correlation_id);
  if (it == open_.end()) return;  // sent before recording was switched on
  it->second.recv = now;
  it->second.reply_bytes = frame.size();
  done_.push_back(it->second);
  open_.erase(it);
}

void Tracer::OnHandled(const sknn::Message& request, double start,
                       double end) {
  C2Handle h{request.correlation_id, request.query_id, request.type, start,
             end};
  sknn::MutexLock lock(&mutex_);
  handles_.push_back(h);
}

std::vector<Exchange> Tracer::exchanges() const {
  sknn::MutexLock lock(&mutex_);
  return done_;
}

std::vector<C2Handle> Tracer::handles() const {
  sknn::MutexLock lock(&mutex_);
  return handles_;
}

bool Tracer::WriteJsonLines(const std::string& path,
                            const std::vector<ClientSpan>& clients) const {
  std::vector<Exchange> exchanges = this->exchanges();
  std::vector<C2Handle> handles = this->handles();
  std::ofstream out(path);
  if (!out) return false;
  char line[512];
  uint64_t next_id = 1;
  // A query's exchanges hang off the client request that contains the
  // first of them; that request's span takes the query's id.
  std::map<uint64_t, uint64_t> query_parent;  // query id -> client span id
  std::map<uint64_t, uint64_t> client_query;  // client span id -> query id
  for (const Exchange& e : exchanges) {
    if (e.query_id == 0 || query_parent.count(e.query_id)) continue;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if (!clients[i].cache_hit && !client_query.count(i + 1) &&
          clients[i].start <= e.send && e.send <= clients[i].end) {
        query_parent[e.query_id] = i + 1;
        client_query[i + 1] = e.query_id;
        break;
      }
    }
  }
  // Client requests are the roots (ids 1..clients.size()).
  for (const ClientSpan& c : clients) {
    const uint64_t id = next_id++;
    std::snprintf(line, sizeof(line),
                  "{\"id\": %llu, \"parent\": 0, \"name\": \"client.%s\", "
                  "\"start\": %.9f, \"end\": %.9f, \"query_id\": %llu}\n",
                  static_cast<unsigned long long>(id),
                  c.cache_hit ? "hit" : "query", c.start, c.end,
                  static_cast<unsigned long long>(
                      client_query.count(id) ? client_query[id] : 0));
    out << line;
  }
  std::map<uint64_t, uint64_t> exchange_id;  // correlation id -> span id
  for (const Exchange& e : exchanges) {
    const uint64_t id = next_id++;
    exchange_id[e.correlation_id] = id;
    auto parent = query_parent.find(e.query_id);
    std::snprintf(line, sizeof(line),
                  "{\"id\": %llu, \"parent\": %llu, \"name\": "
                  "\"c1.exchange.%s\", \"start\": %.9f, \"end\": %.9f, "
                  "\"query_id\": %llu, \"bytes\": %llu}\n",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(
                      parent == query_parent.end() ? 0 : parent->second),
                  OpcodeName(e.opcode).c_str(), e.send, e.recv,
                  static_cast<unsigned long long>(e.query_id),
                  static_cast<unsigned long long>(e.request_bytes +
                                                  e.reply_bytes));
    out << line;
  }
  for (const C2Handle& h : handles) {
    auto parent = exchange_id.find(h.correlation_id);
    std::snprintf(line, sizeof(line),
                  "{\"id\": %llu, \"parent\": %llu, \"name\": "
                  "\"c2.handle.%s\", \"start\": %.9f, \"end\": %.9f, "
                  "\"query_id\": %llu}\n",
                  static_cast<unsigned long long>(next_id++),
                  static_cast<unsigned long long>(
                      parent == exchange_id.end() ? 0 : parent->second),
                  OpcodeName(h.opcode).c_str(), h.start, h.end,
                  static_cast<unsigned long long>(h.query_id));
    out << line;
  }
  return static_cast<bool>(out);
}

bool TracingEndpoint::Send(std::vector<uint8_t> frame) {
  if (tracer_->enabled()) tracer_->OnSend(frame);
  return inner_->Send(std::move(frame));
}

bool TracingEndpoint::Recv(std::vector<uint8_t>* frame) {
  const bool ok = inner_->Recv(frame);
  if (ok && tracer_->enabled()) tracer_->OnRecv(*frame);
  return ok;
}

sknn::RpcServer::Handler WrapC2Handler(sknn::C2Service* c2, Tracer* tracer) {
  if (tracer == nullptr) {
    return [c2](const sknn::Message& request) { return c2->Handle(request); };
  }
  return [c2, tracer](const sknn::Message& request) {
    if (!tracer->enabled()) return c2->Handle(request);
    const double start = Now();
    sknn::Result<sknn::Message> reply = c2->Handle(request);
    tracer->OnHandled(request, start, Now());
    return reply;
  };
}

}  // namespace qbench
