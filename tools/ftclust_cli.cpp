/// \file ftclust_cli.cpp
/// The ftclust command line tool: analyze capture files of unknown binary
/// protocols, serve the analysis as a daemon, synthesize evaluation traces,
/// and score the pipeline against ground truth.
///
/// Every subcommand, flag and default lives in one table (cli_flags.hpp);
/// the usage text is generated from it and README.md's flag reference is
/// checked against it by tools/doc_lint. An unknown flag, a value flag
/// without a value or a stray argument prints the usage text to stderr and
/// exits 2.
///
///   ftclust analyze <capture.pcap> (alias: run)
///       Cluster the capture's messages into pseudo data types and print
///       the analyst report. The job itself (decap, checkpoints, lenient
///       segmentation, the seeded pipeline, the report bytes) is
///       serve::run_job, shared with every serve session; this file adds
///       the observability outputs (--trace-out, --metrics-out,
///       --manifest-out, --telemetry-out, --progress and the
///       --metrics-listen scrape endpoint), the stdout lines, --report-out
///       and --semantics. Exit codes: 0 ok; 3 when --budget/--deadline-ms,
///       --max-segments, --max-bytes or --max-memory stops the run (with a
///       partial-progress report); 128+signo when SIGINT/SIGTERM stops it
///       gracefully (a second signal kills the default way); 1 on any
///       other error. --checkpoint DIR persists each completed stage and
///       --resume restores every snapshot that validates, so a killed run
///       continues where it stopped with identical output. Output files
///       are written atomically (tmp + fsync + rename), and observability
///       never changes the clustering output.
///
///   ftclust serve --spool DIR
///       Run the pipeline as a long-lived, crash-recoverable daemon: jobs
///       arrive as pcap bytes over local HTTP (POST /jobs), are journaled
///       before the 202 ack and run as fault-isolated sessions; overload is
///       shed with 503 + Retry-After. See src/serve/*.hpp. SIGINT/SIGTERM
///       drain and exit 128+signo.
///
///   ftclust version [--json]
///       Build provenance: version, git SHA, build type, kernel backends.
///
///   ftclust generate <protocol> <messages> <out.pcap>
///   ftclust corrupt <in.pcap> <out.pcap>
///   ftclust evaluate <protocol> <messages>
///       Synthesize a trace of a built-in protocol; fault-inject a capture
///       to exercise lenient mode; score a segmentation ("true" = ground
///       truth) by precision, recall, F1/4 and coverage.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "cli_flags.hpp"
#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/semantics.hpp"
#include "dissim/kernel.hpp"
#include "dissim/neighborhood.hpp"
#include "mem/mem.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "obs/sampler.hpp"
#include "pcap/pcap.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "testing/fault_plan.hpp"
#include "testing/corrupter.hpp"
#include "util/atomic_file.hpp"
#include "util/build_info.hpp"
#include "util/check.hpp"
#include "util/diag.hpp"
#include "util/interrupt.hpp"
#include "util/net.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ftc;

/// First SIGINT/SIGTERM requests a graceful stop: one lock-free atomic
/// store, the only thing an async-signal-safe handler may do here. Every
/// cooperative cancellation point in the pipeline (deadline::check) then
/// raises ftc::interrupted_error, which unwinds through the normal
/// budget-exceeded paths — final checkpoint manifest, observability
/// outputs, partial-progress report. A second signal restores the default
/// disposition and re-raises, so a hung run can always be killed.
extern "C" void stop_signal_handler(int signal_number) {
    if (interrupt_requested()) {
        std::signal(signal_number, SIG_DFL);
        std::raise(signal_number);
        return;
    }
    request_interrupt(signal_number);
}

/// Idempotent: handlers are installed once per process.
void install_stop_handlers() {
    static const bool installed = [] {
        std::signal(SIGINT, stop_signal_handler);
        std::signal(SIGTERM, stop_signal_handler);
        return true;
    }();
    (void)installed;
}

/// The --telemetry-out / --progress sampler over \p rec, if either is on.
/// Its status reads "error" until an exit path knows better.
void start_sampler(std::optional<obs::sampler>& sampler, const cli::arguments& args,
                   const obs::recorder* rec, bool progress) {
    const char* telemetry_out = args.value("--telemetry-out");
    if (telemetry_out == nullptr && !progress) {
        return;
    }
    obs::sampler_options sopt;
    sopt.telemetry_path = telemetry_out != nullptr ? telemetry_out : "";
    const double interval_ms = args.real("--telemetry-interval-ms");
    sopt.interval =
        std::chrono::milliseconds(interval_ms > 0 ? static_cast<long>(interval_ms) : 500);
    sopt.progress = progress;
    sampler.emplace(rec, std::move(sopt));
    sampler->set_status("error");
}

int cmd_analyze(const char* cmd_name, const cli::arguments& args) {
    const std::string& path = args.positional[0];
    serve::job_options job;
    job.segmenter = args.value("--segmenter");
    core::pipeline_options& opt = job.pipeline;
    opt.budget_seconds = args.real("--budget");
    if (const double deadline_ms = args.real("--deadline-ms"); deadline_ms > 0) {
        opt.budget_seconds = deadline_ms / 1000.0;
    }
    opt.max_segments = static_cast<std::size_t>(args.u64("--max-segments"));
    opt.max_bytes = static_cast<std::size_t>(args.bytes("--max-bytes"));
    opt.max_memory = static_cast<std::size_t>(args.bytes("--max-memory"));
    opt.threads = static_cast<std::size_t>(args.u64("--threads"));
    opt.neighborhood = dissim::parse_neighborhood_mode(args.value("--neighborhood"));
    // --strict is the default; accepting it explicitly lets scripts pin the
    // policy, and an explicit --strict wins over a stray --lenient.
    const bool lenient = args.has("--lenient") && !args.has("--strict");
    diag::error_sink sink(lenient ? diag::policy::lenient : diag::policy::strict);

    const char* trace_out = args.value("--trace-out");
    const char* metrics_out = args.value("--metrics-out");
    const char* manifest_out = args.value("--manifest-out");
    const char* report_out = args.value("--report-out");
    const char* checkpoint_dir = args.value("--checkpoint");
    job.resume = args.has("--resume");
    if (job.resume && checkpoint_dir == nullptr) {
        throw cli::usage_error("--resume requires --checkpoint DIR");
    }
    if (checkpoint_dir != nullptr) {
        job.checkpoint_dir = checkpoint_dir;
    }
    const char* telemetry_out = args.value("--telemetry-out");
    const char* metrics_listen = args.value("--metrics-listen");
    const bool progress = args.has("--progress");

    install_stop_handlers();
    // Any observability output installs the recorder; otherwise every hook
    // in the pipeline stays a single null-pointer check. The telemetry
    // sampler and the scrape endpoint snapshot the same registry, so they
    // count as outputs too.
    std::optional<obs::scoped_recorder> recorder;
    if (trace_out != nullptr || metrics_out != nullptr || manifest_out != nullptr ||
        telemetry_out != nullptr || metrics_listen != nullptr) {
        recorder.emplace();
    }

    // Live observers, both RAII: the sampler's destructor runs during any
    // stack unwind out of this function, so the NDJSON stream ends with its
    // final status sample on every exit path for free; the server stops
    // accepting the same way.
    std::optional<obs::sampler> sampler;
    start_sampler(sampler, args, recorder.has_value() ? &recorder->rec() : nullptr, progress);
    // The scrape endpoint is the serve HTTP stack with one route.
    std::optional<serve::daemon> scrape;
    if (metrics_listen != nullptr) {
        serve::daemon_options dopt;
        dopt.listen = util::net::parse_listen_address(metrics_listen);
        dopt.io_threads = 1;
        scrape.emplace(serve::metrics_routes(recorder->rec()), std::move(dopt));
        std::printf("serving metrics on port %u\n", scrape->port());
    }

    byte_vector raw = util::read_file(path);
    const std::size_t input_bytes = raw.size();
    const std::uint64_t input_digest =
        manifest_out != nullptr ? obs::fnv1a64(raw.data(), raw.size()) : 0;
    std::size_t loaded_messages = 0;
    std::vector<std::string> restored_stages;
    serve::job_events events;
    events.loaded = [&](std::size_t packets, std::size_t messages) {
        loaded_messages = messages;
        std::printf("loaded %zu packets -> %zu application messages (%s mode)\n", packets,
                    messages, lenient ? "lenient" : "strict");
    };
    events.restored = [&](const std::vector<std::string>& stages) {
        restored_stages = stages;
        std::string joined;
        for (const std::string& s : stages) {
            joined += joined.empty() ? s : ", " + s;
        }
        std::printf("resumed from %s: restored %s\n", checkpoint_dir, joined.c_str());
    };

    // Everything a machine needs to reproduce or compare this run, written
    // atomically like every output file (an unwritable target throws). The
    // quarantine table is read back from the obs registry (diag publishes
    // every quarantined record there), so the manifest and the CLI report
    // are views over the same counters.
    auto write_outputs = [&](const core::pipeline_result* result, std::size_t message_count,
                             const char* status) {
        if (!recorder.has_value()) {
            return;
        }
        const obs::trace_snapshot trace = recorder->rec().trace();
        const obs::metrics_snapshot metrics = recorder->rec().metrics().snapshot();
        if (trace_out != nullptr) {
            util::atomic_write_file(trace_out, obs::to_chrome_trace(trace));
        }
        if (metrics_out != nullptr) {
            util::atomic_write_file(metrics_out, obs::to_prometheus(metrics));
        }
        if (manifest_out == nullptr) {
            return;
        }
        obs::run_manifest m;
        m.version = util::build_version_string();
        m.command = cmd_name;
        m.options = {
            {"segmenter", job.segmenter},
            {"budget_seconds", std::to_string(opt.budget_seconds)},
            {"max_segments", std::to_string(opt.max_segments)},
            {"max_bytes", std::to_string(opt.max_bytes)},
            {"max_memory", std::to_string(opt.max_memory)},
            {"mode", lenient ? "lenient" : "strict"},
            {"threads", std::to_string(opt.threads)},
            {"neighborhood", dissim::neighborhood_mode_name(opt.neighborhood)},
        };
        m.input_path = path;
        m.input_bytes = input_bytes;
        m.input_digest = input_digest;
        m.threads = util::resolve_threads(opt.threads);
        m.stages = obs::collect_stages(trace);
        m.metrics = metrics;
        if (const auto it = metrics.counters.find("diag.quarantined_total");
            it != metrics.counters.end()) {
            m.quarantined = static_cast<std::uint64_t>(it->second);
        }
        constexpr std::string_view kQuarantinePrefix = "diag.quarantined.";
        for (const auto& [name, value] : metrics.counters) {
            if (name.size() > kQuarantinePrefix.size() &&
                name.compare(0, kQuarantinePrefix.size(), kQuarantinePrefix) == 0) {
                m.quarantine_by_category.emplace_back(name.substr(kQuarantinePrefix.size()),
                                                      static_cast<std::uint64_t>(value));
            }
        }
        m.peak_rss_bytes = obs::peak_rss_bytes();
        m.peak_tracked_bytes = mem::peak_bytes();
        m.elapsed_seconds =
            static_cast<double>(recorder->rec().now_ns()) / 1e9;
        m.messages = message_count;
        m.status = status;
        if (checkpoint_dir != nullptr) {
            m.checkpoint_dir = checkpoint_dir;
            m.restored_stages = restored_stages;
        }
        if (result != nullptr) {
            m.unique_segments = result->unique.size();
            m.clusters = result->final_labels.cluster_count;
            m.noise = result->final_labels.noise_count();
            m.epsilon = result->clustering.config.epsilon;
            m.min_samples = result->clustering.config.min_samples;
            m.elapsed_seconds = result->elapsed_seconds;
        }
        util::atomic_write_file(manifest_out, obs::to_json(m));
    };

    serve::job_result done;
    try {
        done = serve::run_job(std::move(raw), job, sink, events);
    } catch (const ftc::error& e) {
        // A failed, bounded or interrupted run still leaves its trace,
        // metrics and a manifest behind — that is when they matter most.
        // The final checkpoint manifest (status=interrupted) was already
        // written by the runner.
        const char* status = "error";
        if (dynamic_cast<const interrupted_error*>(&e) != nullptr) {
            status = "interrupted";
        } else if (dynamic_cast<const memory_budget_exceeded_error*>(&e) != nullptr) {
            status = "memory-exceeded";
        } else if (dynamic_cast<const budget_exceeded_error*>(&e) != nullptr) {
            status = "budget-exceeded";
        } else {
            // Why lenient ingestion left too few messages, for instance.
            std::fputs(core::render_quarantine(sink).c_str(), stdout);
        }
        if (sampler.has_value()) {
            // The rethrow unwinds through the sampler's destructor, which
            // emits the final NDJSON sample carrying this status.
            sampler->set_status(status);
        }
        write_outputs(nullptr, loaded_messages, status);
        throw;
    }
    const core::pipeline_result& result = done.pipeline;
    std::printf("%s segmentation -> %zu unique segments -> %zu pseudo data types "
                "(eps %.3f, min_samples %zu, %.1fs)\n",
                job.segmenter.c_str(), result.unique.size(),
                result.final_labels.cluster_count, result.clustering.config.epsilon,
                result.clustering.config.min_samples, result.elapsed_seconds);
    write_outputs(&result, done.messages.size(), "ok");
    const std::string quarantine = core::render_quarantine(sink);
    if (!quarantine.empty()) {
        std::fputs(quarantine.c_str(), stdout);
    }
    if (report_out != nullptr) {
        util::atomic_write_file(report_out, done.report);
    }
    std::fputs("\n", stdout);
    std::fputs(done.report.c_str(), stdout);

    if (args.has("--semantics")) {
        std::printf("\ndeduced semantics:\n%s",
                    core::render_semantics(core::deduce_semantics(done.messages, result))
                        .c_str());
    }
    if (sampler.has_value()) {
        sampler->set_status("ok");
    }
    return 0;
}

/// Long-lived clustering daemon: accept captures over local HTTP, run
/// each as a fault-isolated session, journal everything to the spool so
/// kill -9 costs at most the stage in flight. See src/serve/*.hpp for the
/// architecture; this function only parses flags and owns the lifetime
/// order (spool -> sessions -> listener, torn down in reverse).
int cmd_serve(const char* /*word*/, const cli::arguments& args) {
    const char* spool_dir = args.value("--spool");
    if (spool_dir == nullptr) {
        throw cli::usage_error("serve requires --spool DIR");
    }
    serve::serve_options opt;
    opt.segmenter = args.value("--segmenter");
    opt.sessions = static_cast<std::size_t>(args.u64("--sessions"));
    opt.queue_depth = static_cast<std::size_t>(args.u64("--queue-depth"));
    // Serving default is lenient (quarantine per job); --strict still wins.
    opt.lenient = !args.has("--strict");
    opt.session_budget_seconds = args.real("--budget");
    opt.pipeline_threads = static_cast<std::size_t>(args.u64("--threads"));
    opt.neighborhood = dissim::parse_neighborhood_mode(args.value("--neighborhood"));
    opt.max_memory = static_cast<std::size_t>(args.bytes("--max-memory"));
    opt.session_max_memory = static_cast<std::size_t>(args.bytes("--session-max-memory"));
    opt.retry_after_seconds = static_cast<int>(args.u64("--retry-after"));

    serve::daemon_options dopt;
    dopt.listen = util::net::parse_listen_address(args.value("--listen"));
    dopt.limits.max_body_bytes = static_cast<std::size_t>(args.bytes("--max-body"));
    dopt.limits.io_deadline_ms = static_cast<int>(args.u64("--io-deadline-ms"));

    install_stop_handlers();
    // The daemon always runs a recorder: /metrics serves its snapshot and
    // every serve.* counter lands in it.
    obs::scoped_recorder recorder;
    std::optional<obs::sampler> sampler;
    start_sampler(sampler, args, &recorder.rec(), false);

    serve::spool journal{std::filesystem::path{spool_dir}};
    serve::session_manager sessions(journal, opt);
    diag::error_sink recovery_sink(diag::policy::lenient);
    const std::size_t replayed = sessions.recover(recovery_sink);
    if (replayed > 0) {
        std::printf("recovered %zu unfinished job%s from %s\n", replayed,
                    replayed == 1 ? "" : "s", spool_dir);
    }
    sessions.start();
    serve::daemon daemon(serve::job_routes(sessions, &recorder.rec()), dopt);
    std::printf("serving on %s:%u (spool %s, %zu sessions, queue %zu)\n",
                dopt.listen.host.c_str(), daemon.port(), spool_dir, opt.sessions,
                opt.queue_depth);
    std::fflush(stdout);

    while (!interrupt_requested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fputs("stop requested, draining\n", stderr);
    daemon.stop();
    sessions.stop();
    if (sampler.has_value()) {
        sampler->set_status("interrupted");
    }
    const int sig = interrupt_signal();
    return sig > 0 ? 128 + sig : 0;
}

int cmd_version(const char* /*word*/, const cli::arguments& args) {
    const bool as_json = args.has("--json");
    const char* active = dissim::kernel::backend_name(dissim::kernel::active());
    if (as_json) {
        obs::json_writer w;
        w.begin_object();
        w.key("tool");
        w.value("ftclust");
        w.key("version");
        w.value(util::build_version());
        w.key("git_sha");
        w.value(util::build_git_sha());
        w.key("build_type");
        w.value(util::build_type());
        w.key("kernel_backend");
        w.value(active);
        w.end_object();
        std::printf("%s\n", w.take().c_str());
        return 0;
    }
    std::printf("ftclust %s (%s, %s build)\n", util::build_version(),
                util::build_git_sha(), util::build_type());
    std::printf("kernel backend: %s\n", active);
    return 0;
}

int cmd_corrupt(const char* /*word*/, const cli::arguments& args) {
    const std::string& out_path = args.positional[1];
    testing::corruption_options opt;
    opt.fault_fraction = args.real("--fraction");
    opt.seed = args.u64("--seed");
    testing::corruption_log log;
    testing::corrupt_pcap_file(args.positional[0], out_path, opt, &log);
    std::printf("injected %zu faults (%zu bit flips, %zu snapped, %zu corrupt lengths) "
                "into %s\n",
                log.faults.size(), log.count(testing::fault_kind::bit_flip),
                log.count(testing::fault_kind::snap),
                log.count(testing::fault_kind::length_garbage), out_path.c_str());
    return 0;
}

int cmd_generate(const char* /*word*/, const cli::arguments& args) {
    const std::string& protocol = args.positional[0];
    const auto count = static_cast<std::size_t>(util::parse_u64(args.positional[1], "<messages>"));
    const std::string& out_path = args.positional[2];
    const auto seed = args.u64("--seed");

    const protocols::trace trace = protocols::generate_trace(protocol, count, seed);
    pcap::write_file(out_path, protocols::trace_to_capture(trace));
    std::printf("wrote %zu %s messages (%zu payload bytes) to %s\n", trace.messages.size(),
                protocol.c_str(), trace.total_bytes(), out_path.c_str());
    return 0;
}

int cmd_evaluate(const char* /*word*/, const cli::arguments& args) {
    const std::string& protocol = args.positional[0];
    const auto count = static_cast<std::size_t>(util::parse_u64(args.positional[1], "<messages>"));
    const std::string segmenter_name = args.value("--segmenter");
    const auto seed = args.u64("--seed");

    const protocols::trace truth = protocols::generate_trace(protocol, count, seed);
    const auto messages = segmentation::message_bytes(truth);

    core::pipeline_options opt;
    opt.budget_seconds = 120;
    opt.threads = static_cast<std::size_t>(args.u64("--threads"));
    core::pipeline_result result = [&] {
        if (segmenter_name == "true") {
            return core::analyze_segments(messages,
                                          segmentation::segments_from_annotations(truth), opt);
        }
        const auto segmenter = segmentation::make_segmenter(segmenter_name);
        return core::analyze(messages, *segmenter, opt);
    }();

    const core::typed_segments typed = core::assign_types(truth, result.unique);
    const core::clustering_quality q =
        core::evaluate_clustering(result.final_labels, typed, truth.total_bytes());
    std::printf("%s@%zu segmenter=%s: unique=%zu eps=%.3f clusters=%zu noise=%zu\n",
                protocol.c_str(), count, segmenter_name.c_str(), result.unique.size(),
                result.clustering.config.epsilon, result.final_labels.cluster_count,
                result.final_labels.noise_count());
    std::printf("precision=%.2f recall=%.2f F1/4=%.2f coverage=%.0f%%\n", q.precision,
                q.recall, q.f_score, 100 * q.coverage);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        // Deterministic allocation-fault injection for robustness testing:
        // inert unless FTC_ALLOC_FAIL_NTH / FTC_ALLOC_FAIL_ABOVE_BYTES is set.
        ftc::testing::arm_alloc_faults_from_env();
        // Same contract for socket/spool faults: inert unless
        // FTC_SOCK_FAIL_NTH / FTC_SOCK_FAIL_KIND is set.
        ftc::testing::arm_sock_faults_from_env();
        const std::optional<cli::command> cmd =
            cli::find_command(argc < 2 ? "" : argv[1]);
        if (!cmd.has_value()) {
            throw cli::usage_error(argc < 2 ? "missing subcommand"
                                            : std::string("unknown subcommand ") + argv[1]);
        }
        const cli::arguments args = cli::parse(*cmd, argc - 2, argv + 2);
        // Indexed by cli::command; each gets the word it was invoked as.
        constexpr int (*kRun[])(const char*, const cli::arguments&) = {
            cmd_analyze, cmd_serve, cmd_version, cmd_generate, cmd_corrupt, cmd_evaluate};
        return kRun[static_cast<std::size_t>(*cmd)](argv[1], args);
    } catch (const cli::usage_error& e) {
        std::fprintf(stderr, "error: %s\n%s", e.what(), cli::usage().c_str());
        return 2;
    } catch (const ftc::interrupted_error& e) {
        std::fprintf(stderr, "interrupted: %s\n", e.what());
        if (!e.partial_report().empty()) {
            std::fprintf(stderr, "partial progress: %s\n", e.partial_report().c_str());
        }
        // Conventional 128+signo, so scripts can tell SIGINT from SIGTERM;
        // programmatic stop requests (no signal) share the budget exit code.
        const int sig = ftc::interrupt_signal();
        return sig > 0 ? 128 + sig : 3;
    } catch (const ftc::budget_exceeded_error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        if (!e.partial_report().empty()) {
            std::fprintf(stderr, "partial progress: %s\n", e.partial_report().c_str());
        }
        return 3;
    } catch (const ftc::error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
