#include "serve/job.hpp"

#include <optional>
#include <utility>

#include "ckpt/manager.hpp"
#include "core/report.hpp"
#include "mem/mem.hpp"
#include "obs/export.hpp"
#include "pcap/decap.hpp"
#include "pcap/pcap.hpp"
#include "segmentation/segment.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace ftc::serve {

namespace {

/// Segmenters raise bare budget errors; attach the progress a front end
/// reports ("reached stage segmentation"), keeping a stop request an
/// interrupted_error. (Segmentation makes no tracked allocations, so no
/// memory_budget_exceeded_error comes from here.)
segmentation::lenient_segmentation segment(const segmentation::segmenter& segmenter,
                                           const std::vector<byte_vector>& messages,
                                           const deadline& dl, diag::error_sink& sink) {
    try {
        return segmentation::segment_lenient(segmenter, messages, dl, sink);
    } catch (const budget_exceeded_error& e) {
        if (!e.partial_report().empty()) {
            throw;
        }
        std::string partial = message("messages ", messages.size(), "; reached stage segmentation");
        if (dynamic_cast<const interrupted_error*>(&e) != nullptr) {
            throw interrupted_error(e.what(), std::move(partial));
        }
        throw budget_exceeded_error(e.what(), std::move(partial));
    }
}

}  // namespace

job_result run_job(byte_vector capture, const job_options& options,
                   diag::error_sink& sink, const job_events& events) {
    core::pipeline_options opt = options.pipeline;
    std::vector<byte_vector> messages;
    {
        const pcap::capture cap = pcap::from_pcap_bytes(capture, sink);
        for (pcap::datagram& d : pcap::extract_datagrams(cap, {}, sink)) {
            messages.push_back(std::move(d.payload));
        }
        if (events.loaded) {
            events.loaded(cap.packets.size(), messages.size());
        }
    }
    if (messages.size() < 3) {
        throw parse_error("not enough messages to analyze");
    }

    // The governor goes in before the checkpoint load: loading allocates
    // matrix-sized buffers, and the resume-time layout choice (dense vs.
    // triangular) projects against the active governor.
    std::optional<mem::governor> governor;
    if (opt.max_memory > 0) {
        governor.emplace(opt.max_memory);
    }

    // The fingerprint binds every snapshot to these options and this input.
    job_result out;
    core::pipeline_seed seed;
    std::optional<ckpt::checkpoint_manager> manager;
    if (!options.checkpoint_dir.empty()) {
        manager.emplace(options.checkpoint_dir,
                        ckpt::fingerprint(opt, options.segmenter,
                                          obs::fnv1a64(capture.data(), capture.size())));
        opt.observer = &*manager;
        if (options.resume) {
            // A damaged or mismatched snapshot is quarantined (category
            // checkpoint) and only its stage recomputed.
            ckpt::restored_state restored = manager->load(messages, sink);
            seed = std::move(restored.seed);
            if (restored.has_segments()) {
                out.messages = std::move(restored.messages);
                manager->set_surviving(std::move(restored.surviving));
            }
            if (!restored.stages.empty() && events.restored) {
                events.restored(restored.stages);
            }
        }
    }
    byte_vector().swap(capture);

    const auto segmenter = segmentation::make_segmenter(options.segmenter);
    const deadline dl = opt.budget_seconds > 0 ? deadline(opt.budget_seconds) : deadline();
    try {
        if (!seed.segments.has_value()) {
            segmentation::lenient_segmentation segmented = segment(*segmenter, messages, dl, sink);
            out.messages = std::move(segmented.messages);
            if (manager.has_value()) {
                // The pipeline only announces the stages it computes;
                // snapshot segmentation before the expensive ones start.
                manager->set_surviving(std::move(segmented.surviving));
                manager->on_segments(out.messages, segmented.segments);
            }
            seed.segments = std::move(segmented.segments);
        }
        std::vector<byte_vector>().swap(messages);  // the survivors are in out.messages
        out.pipeline = core::analyze_seeded(out.messages, nullptr, std::move(seed), opt);
    } catch (const interrupted_error&) {
        // Later stages record their own interruption through the observer.
        if (manager.has_value() && !seed.segments.has_value()) {
            manager->on_interrupted("segmentation");
        }
        throw;
    }
    if (manager.has_value()) {
        manager->mark_complete();
    }
    out.report = core::render_report(core::summarize_clusters(out.pipeline));
    return out;
}

}  // namespace ftc::serve
