/// \file job.hpp
/// The one batch job runner behind `ftclust run` and every serve session
/// (ftc::serve::run_job).
///
/// A job is capture bytes in, report bytes out: decap, the minimum-message
/// check, an optional memory governor, optional stage checkpoints with
/// resume, lenient segmentation and the seeded pipeline. Both front ends
/// call this function, so a served job is the batch job by construction
/// and its report is byte-identical to `ftclust run --report-out` for the
/// same capture and options. Callers keep only what is theirs: the CLI its
/// recorder, sampler, scrape endpoint and output files; serve its
/// admission, degradation choice and journal.
///
/// Errors propagate typed. A budget, memory or stop request raised by the
/// segmenters carries a partial-progress report ("reached stage
/// segmentation") like those of the later stages; a stop request during
/// segmentation also leaves the checkpoint manifest `interrupted`.
#pragma once

#include <cstddef>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "util/byteio.hpp"
#include "util/diag.hpp"

namespace ftc::serve {

/// Everything that shapes a job's result. `pipeline.observer` is the
/// runner's: it points it at the checkpoint manager when there is one.
struct job_options {
    std::string segmenter = "NEMESYS";
    core::pipeline_options pipeline;  ///< budget, caps, threads, neighborhood
    std::filesystem::path checkpoint_dir;  ///< empty = no checkpoints
    bool resume = false;  ///< adopt the snapshots in checkpoint_dir that validate
};

/// Progress a front end reports as it happens; both are optional.
struct job_events {
    /// After decap, before the minimum-message check.
    std::function<void(std::size_t packets, std::size_t messages)> loaded;
    /// After a resume restored at least one stage (pipeline order).
    std::function<void(const std::vector<std::string>& stages)> restored;
};

struct job_result {
    core::pipeline_result pipeline;
    std::vector<byte_vector> messages;  ///< messages that survived quarantine
    std::string report;                 ///< the rendered analyst report
};

/// Run one job over \p capture (consumed: the bytes are released once
/// decapsulated). Ingestion and segmentation quarantine goes to \p sink
/// under its policy. Throws parse_error when fewer than three messages
/// survive decap.
job_result run_job(byte_vector capture, const job_options& options,
                   diag::error_sink& sink, const job_events& events = {});

}  // namespace ftc::serve
