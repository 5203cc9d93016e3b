// serve-load: closed-loop tenants against a running qpf_serve.
//
// One process, one thread and one connection per tenant (the caller
// keeps tenants <= nproc).  Each tenant opens one Pauli-frame session
// and repeats a seeded mix of small Clifford SubmitQasm requests with a
// fixed share of Measure and Snapshot requests until the deadline, timing
// every round trip.  Afterwards every reply is compared with an
// in-process serve::Session replay of the same requests: type, payload
// length and 64-bit payload digest.  With --trace the replay also times
// Session::submit_qasm and Session::park, and the frame codec is timed on
// the replayed frames.
#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "journal/snapshot.h"
#include "serve/client.h"
#include "serve/session.h"

namespace perfbench {
namespace {

using qpf::serve::Frame;
using qpf::serve::MsgType;

enum Kind : std::uint8_t { kSubmit = 0, kMeasure = 1, kSnapshot = 2 };
constexpr const char* kKindNames[] = {"submit", "measure", "snapshot"};
constexpr std::uint64_t kQubits = 4;  ///< register size of every session

/// One measured round trip.  The reply payload is kept as its length and
/// 64-bit FNV-1a digest, which bounds memory on long runs.
struct Request {
  std::uint64_t digest = 0;
  std::uint32_t rtt_ns = 0;
  std::uint32_t done_us = 0;  ///< completion, microseconds after launch
  std::uint32_t payload_size = 0;
  Kind kind = kSubmit;
  MsgType reply_type = MsgType::kError;
};

struct Tenant {
  qpf::serve::SessionConfig config;
  std::vector<Request> requests;
  Clock::time_point opened;
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t error_replies = 0;
  std::uint64_t overloaded_replies = 0;
  std::uint64_t transport_failures = 0;
  std::string failure;
};

std::uint64_t digest(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
  return h;
}

/// Small seeded Clifford program over the session register.
std::string make_program(std::uint64_t h, std::uint64_t qubits) {
  static constexpr const char* kOneQubit[] = {"x", "y", "z", "h", "s", "sdag"};
  std::string qasm = "qubits " + std::to_string(qubits) + "\n";
  const std::uint64_t gates = 3 + h % 6;
  for (std::uint64_t g = 0; g < gates; ++g) {
    h = qpf::exec::splitmix64(h);
    const std::uint64_t a = (h >> 8) % qubits;
    std::uint64_t b = (h >> 16) % qubits;
    if (b == a) {
      b = (a + 1) % qubits;
    }
    const std::uint64_t kind = h % 8;
    if (kind < 6) {
      qasm += std::string(kOneQubit[kind]) + " q" + std::to_string(a) + "\n";
    } else {
      qasm += std::string(kind == 6 ? "cnot" : "cz") + " q" +
              std::to_string(a) + ",q" + std::to_string(b) + "\n";
    }
  }
  if ((h >> 32) % 4 == 0) {
    qasm += "measure q" + std::to_string((h >> 40) % qubits) + "\n";
  }
  return qasm;
}

/// Request k of a tenant: its kind and, for kSubmit, its program.
struct Planned {
  Kind kind = kSubmit;
  std::string qasm;
};

Planned plan(std::uint64_t seed, std::size_t tenant, std::uint64_t k,
             std::uint64_t qubits) {
  const std::uint64_t h = derive_seed(seed, 1000 + tenant, k);
  const std::uint64_t share = h % 100;
  Planned planned;
  planned.kind = share < 80 ? kSubmit : share < 90 ? kMeasure : kSnapshot;
  if (planned.kind == kSubmit) {
    planned.qasm = make_program(qpf::exec::splitmix64(h), qubits);
  }
  return planned;
}

void run_tenant(std::uint16_t port, Tenant& tenant, std::uint64_t seed,
                std::size_t index, double seconds, Clock::time_point launch,
                std::latch& ready) {
  bool arrived = false;
  try {
    qpf::serve::Client client;
    client.connect(port);
    if (client.hello("perfbench").error) {
      throw qpf::IoError("perfbench", "hello refused");
    }
    const qpf::serve::Client::Result opened =
        client.open_session(tenant.config);
    if (opened.error) {
      throw qpf::IoError("perfbench", "open refused: " + opened.error->code);
    }
    const std::uint64_t session =
        qpf::serve::decode_session_opened(opened.reply.payload).session;
    tenant.opened = Clock::now();
    ready.arrive_and_wait();
    arrived = true;

    tenant.start = Clock::now();
    const Clock::time_point deadline =
        tenant.start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
      const Planned planned = plan(seed, index, k, tenant.config.qubits);
      const Clock::time_point sent = Clock::now();
      const qpf::serve::Client::Result result =
          planned.kind == kSubmit    ? client.submit_qasm(session, planned.qasm)
          : planned.kind == kMeasure ? client.measure(session)
                                     : client.snapshot(session);
      const Clock::time_point done = Clock::now();
      Request request;
      request.rtt_ns = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(elapsed_ns(sent, done), UINT32_MAX));
      request.done_us =
          static_cast<std::uint32_t>(elapsed_ns(launch, done) / 1000);
      request.kind = planned.kind;
      request.reply_type = result.reply.type;
      request.payload_size =
          static_cast<std::uint32_t>(result.reply.payload.size());
      request.digest = digest(result.reply.payload);
      if (result.error) {
        ++(result.error->code == "overloaded" ? tenant.overloaded_replies
                                              : tenant.error_replies);
      }
      tenant.requests.push_back(request);
    }
    tenant.end = Clock::now();
    (void)client.close_session(session);
  } catch (const std::exception& e) {
    ++tenant.transport_failures;
    tenant.failure = e.what();
    tenant.end = Clock::now();
    if (!arrived) {
      tenant.opened = tenant.start = tenant.end;
      ready.count_down();
    }
  }
}

struct ReplayTimes {
  std::vector<double> execute_us;
  std::vector<double> park_us;
  std::uint64_t codec_ns = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t frames = 0;
};

/// Encode and decode one request frame and its reply frame; returns the
/// bytes on the wire.
std::size_t round_trip_codec(const qpf::serve::SessionConfig& config,
                             std::uint32_t id, Kind kind,
                             const std::string& qasm, MsgType reply_type,
                             const std::vector<std::uint8_t>& reply) {
  Frame out;
  out.version = 1;
  out.type = kind == kSubmit    ? MsgType::kSubmitQasm
             : kind == kMeasure ? MsgType::kMeasure
                                : MsgType::kSnapshot;
  out.session = qpf::serve::session_id_for(config.name);
  out.request = id;
  if (kind == kSubmit) {
    out.payload = qpf::serve::encode_submit_qasm(qasm);
  }
  const std::vector<std::uint8_t> request_bytes = qpf::serve::encode_frame(out);
  qpf::serve::FrameDecoder request_decoder;
  request_decoder.feed(request_bytes.data(), request_bytes.size());
  const std::optional<Frame> request = request_decoder.next();
  if (kind == kSubmit &&
      qpf::serve::decode_submit_qasm(request->payload) != qasm) {
    throw qpf::ProtocolError("perfbench: request frame did not round-trip");
  }
  out.type = reply_type;
  out.payload = reply;
  const std::vector<std::uint8_t> reply_bytes = qpf::serve::encode_frame(out);
  qpf::serve::FrameDecoder reply_decoder;
  reply_decoder.feed(reply_bytes.data(), reply_bytes.size());
  if (reply_decoder.next()->payload != reply) {
    throw qpf::ProtocolError("perfbench: reply frame did not round-trip");
  }
  return request_bytes.size() + reply_bytes.size();
}

/// Replay a tenant's requests on an in-process Session; returns the
/// number of replies whose type, length or digest differ.
std::uint64_t replay(const Tenant& tenant, std::size_t index,
                     std::uint64_t seed, bool trace, ReplayTimes& times) {
  qpf::serve::Session session(tenant.config);
  std::uint64_t mismatches = 0;
  for (std::uint64_t k = 0; k < tenant.requests.size(); ++k) {
    const Request& request = tenant.requests[k];
    const Planned planned = plan(seed, index, k, tenant.config.qubits);
    MsgType type = MsgType::kError;
    std::vector<std::uint8_t> expected;
    try {
      if (planned.kind == kSubmit) {
        (void)session.charge(
            qpf::serve::SessionQuota{},
            qpf::serve::encode_submit_qasm(planned.qasm).size());
        const Clock::time_point start = Clock::now();
        const qpf::serve::RunReply reply = session.submit_qasm(planned.qasm);
        times.execute_us.push_back(elapsed_ns(start, Clock::now()) / 1e3);
        type = MsgType::kRunReply;
        expected = qpf::serve::encode_run_reply(reply);
      } else if (planned.kind == kMeasure) {
        type = MsgType::kMeasureReply;
        expected = qpf::serve::encode_measure_reply(session.measure());
      } else {
        const Clock::time_point start = Clock::now();
        const std::vector<std::uint8_t> parked = session.park();
        times.park_us.push_back(elapsed_ns(start, Clock::now()) / 1e3);
        type = MsgType::kSnapshotReply;
        expected = qpf::serve::encode_snapshot_reply(qpf::serve::SnapshotReply{
            parked.size(), qpf::journal::crc32(parked.data(), parked.size())});
      }
    } catch (const qpf::Error&) {
      type = MsgType::kError;
      expected.clear();
    }
    const bool same = type == request.reply_type &&
                      expected.size() == request.payload_size &&
                      digest(expected) == request.digest;
    mismatches += same ? 0 : 1;
    if (trace && same) {
      const Clock::time_point start = Clock::now();
      times.frame_bytes += round_trip_codec(
          tenant.config, static_cast<std::uint32_t>(k + 3), planned.kind,
          planned.qasm, type, expected);
      times.codec_ns += elapsed_ns(start, Clock::now());
      ++times.frames;
    }
  }
  return mismatches;
}

}  // namespace

int serve_load(const Args& args) {
  const auto port = static_cast<std::uint16_t>(args.u64("port", 0));
  const std::size_t count = args.u64("tenants", 4);
  const double seconds = args.num("seconds", 1.0);
  const std::uint64_t seed = args.u64("seed", 1);
  const bool trace = args.flag("trace");

  std::vector<Tenant> tenants(count);
  for (std::size_t i = 0; i < count; ++i) {
    qpf::serve::SessionConfig& config = tenants[i].config;
    config.name = "perfbench-" + std::to_string(seed) + "-" + std::to_string(i);
    config.seed = derive_seed(seed, 999, i);
    config.qubits = kQubits;
    config.pauli_frame = true;
  }

  const Clock::time_point launch = Clock::now();
  std::latch ready(static_cast<std::ptrdiff_t>(count));
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads.emplace_back(run_tenant, port, std::ref(tenants[i]), seed, i,
                         seconds, launch, std::ref(ready));
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  Clock::time_point all_open = launch;
  Clock::time_point first_start = Clock::time_point::max();
  Clock::time_point last_start = launch;
  Clock::time_point first_end = Clock::time_point::max();
  Clock::time_point last_end = launch;
  std::vector<double> rtt_ms;
  std::vector<double> kind_ms[3];
  std::uint64_t requests = 0;
  std::uint64_t error_replies = 0;
  std::uint64_t overloaded_replies = 0;
  std::uint64_t transport_failures = 0;
  for (const Tenant& tenant : tenants) {
    all_open = std::max(all_open, tenant.opened);
    first_start = std::min(first_start, tenant.start);
    last_start = std::max(last_start, tenant.start);
    first_end = std::min(first_end, tenant.end);
    last_end = std::max(last_end, tenant.end);
    error_replies += tenant.error_replies;
    overloaded_replies += tenant.overloaded_replies;
    transport_failures += tenant.transport_failures;
    if (!tenant.failure.empty()) {
      std::fprintf(stderr, "serve-load: tenant %s: %s\n",
                   tenant.config.name.c_str(), tenant.failure.c_str());
    }
    requests += tenant.requests.size();
    for (const Request& request : tenant.requests) {
      if (request.reply_type != MsgType::kError) {
        rtt_ms.push_back(request.rtt_ns / 1e6);
        kind_ms[request.kind].push_back(request.rtt_ns / 1e6);
      }
    }
  }

  // Throughput and p99 per one-second slice while every tenant runs; the
  // medians over slices keep a burst of host noise from setting the run's
  // figure.  A run too short for one full slice is one slice.
  std::uint64_t slice_from_us = elapsed_ns(launch, last_start) / 1000;
  std::uint64_t slice_us = 1'000'000;
  std::uint64_t slices = 0;
  if (requests != 0 && first_end > last_start) {
    slices = elapsed_ns(last_start, first_end) / 1000 / slice_us;
  }
  if (slices == 0 && requests != 0) {
    slice_from_us = elapsed_ns(launch, first_start) / 1000;
    slice_us =
        std::max<std::uint64_t>(1, elapsed_ns(first_start, last_end) / 1000);
    slices = 1;
  }
  std::vector<std::vector<double>> slice_ms(slices);
  for (const Tenant& tenant : tenants) {
    for (const Request& request : tenant.requests) {
      if (request.reply_type == MsgType::kError ||
          request.done_us < slice_from_us) {
        continue;
      }
      const std::uint64_t slice = (request.done_us - slice_from_us) / slice_us;
      if (slice < slices) {
        slice_ms[slice].push_back(request.rtt_ns / 1e6);
      }
    }
  }
  std::vector<double> slice_rate;
  std::vector<double> slice_p99;
  for (const std::vector<double>& slice : slice_ms) {
    slice_rate.push_back(static_cast<double>(slice.size()) * 1e6 /
                         static_cast<double>(slice_us));
    slice_p99.push_back(quantile(slice, 0.99));
  }
  const std::uint64_t ok = rtt_ms.size();

  ReplayTimes times;
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < count; ++i) {
    mismatches += replay(tenants[i], i, seed, trace, times);
  }

  Report report;
  report.count("tenants", count);
  report.count("requests", requests);
  report.count("ok", ok);
  report.count("mismatches", mismatches);
  report.count("error_replies", error_replies);
  report.count("overloaded_replies", overloaded_replies);
  report.count("transport_failures", transport_failures);
  report.num("open_s", elapsed_ns(launch, all_open) / 1e9);
  report.count("slices", slices);
  report.num("req_per_sec", quantile(slice_rate, 0.5));
  report.num("rtt_ms_p50", quantile(rtt_ms, 0.5));
  report.num("rtt_ms_p99", quantile(slice_p99, 0.5));
  for (int kind = 0; kind < 3; ++kind) {
    report.count(std::string("n.") + kKindNames[kind], kind_ms[kind].size());
    report.num(std::string("serve.rtt_ms_p50.") + kKindNames[kind],
               quantile(kind_ms[kind], 0.5));
  }
  if (trace) {
    const double frames =
        static_cast<double>(std::max<std::uint64_t>(1, times.frames));
    const double codec = times.codec_ns / 1e3 / frames;
    const double execute = quantile(times.execute_us, 0.5);
    report.num("serve.execute_us_p50", execute);
    report.num("serve.park_us_p50", quantile(times.park_us, 0.5));
    report.num("serve.codec_us", codec);
    report.num("serve.residual_us_p50",
               quantile(kind_ms[kSubmit], 0.5) * 1e3 - execute - codec);
    report.num("serve.bytes_per_request", times.frame_bytes / frames);
  }
  report.print();
  return 0;
}

}  // namespace perfbench
