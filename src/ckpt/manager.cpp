#include "ckpt/manager.hpp"

#include <optional>
#include <utility>

#include "mem/mem.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"

namespace ftc::ckpt {

namespace {

/// Read a whole checkpoint file; nullopt when it does not exist (a fresh
/// directory is not damage), throws ftc::error on I/O failure.
std::optional<byte_vector> read_file(const std::filesystem::path& path) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        return std::nullopt;
    }
    return util::read_file(path);
}

/// Decode one checkpoint file and verify its leading fingerprint section
/// against the current run. Returns the non-fingerprint sections.
std::vector<section> checked_sections(byte_view file, const options_fingerprint& expected) {
    std::vector<section> sections = decode_sections(file);
    if (sections.empty() ||
        sections.front().id != static_cast<std::uint32_t>(section_id::fingerprint)) {
        throw parse_error("ckpt: first section is not the fingerprint");
    }
    const options_fingerprint fp = decode_fingerprint(sections.front().payload);
    if (!(fp == expected)) {
        throw parse_error(
            "ckpt: fingerprint mismatch — checkpoint was written for different "
            "options or input; refusing to resume from it");
    }
    sections.erase(sections.begin());
    return sections;
}

const section* find_section(const std::vector<section>& sections, section_id id) {
    for (const section& s : sections) {
        if (s.id == static_cast<std::uint32_t>(id)) {
            return &s;
        }
    }
    return nullptr;
}

}  // namespace

checkpoint_manager::checkpoint_manager(std::filesystem::path dir, options_fingerprint fp)
    : dir_(std::move(dir)), fp_(fp) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        throw ftc::error("ckpt: cannot create checkpoint directory " + dir_.string() + ": " +
                         ec.message());
    }
    if (!std::filesystem::is_directory(dir_)) {
        throw ftc::error("ckpt: " + dir_.string() + " is not a directory");
    }
}

void checkpoint_manager::set_surviving(std::vector<std::size_t> surviving) {
    surviving_ = std::move(surviving);
}

void checkpoint_manager::write_sections(const char* filename, std::vector<section> sections) {
    sections.insert(sections.begin(),
                    section{static_cast<std::uint32_t>(section_id::fingerprint),
                            encode_fingerprint(fp_)});
    const byte_vector file = encode_sections(sections);
    // The serialized image is a real, sometimes matrix-sized buffer; charge
    // it so the governor (and the fault injector) see checkpoint writes as
    // the allocation spike they are. Scoped: released as soon as the write
    // lands.
    const mem::charge file_charge(file.size(), "ckpt.write");
    util::atomic_write_file(dir_ / filename, byte_view{file});
    obs::counter_add("ckpt.files_written_total", 1.0);
    obs::counter_add("ckpt.bytes_written_total", static_cast<double>(file.size()));
}

void checkpoint_manager::write_manifest(const char* status, const char* stage) {
    obs::json_writer w;
    w.begin_object();
    w.key("tool");
    w.value("ftclust");
    w.key("kind");
    w.value("checkpoint");
    w.key("format_version");
    w.value(static_cast<std::uint64_t>(kFormatVersion));
    w.key("status");
    w.value(status);
    w.key("stage");
    w.value(stage);
    w.key("options_digest");
    w.value(fp_.options_digest);
    w.key("input_digest");
    w.value(fp_.input_digest);
    w.end_object();
    util::atomic_write_file(dir_ / kManifestFile, std::string_view{w.take()});
}

void checkpoint_manager::on_segments(const std::vector<byte_vector>& messages,
                                     const segmentation::message_segments& segments) {
    obs::span sp("ckpt.save.segments");
    segments_payload p;
    p.surviving = surviving_;
    if (p.surviving.empty()) {
        p.surviving.resize(messages.size());
        for (std::size_t i = 0; i < messages.size(); ++i) {
            p.surviving[i] = i;
        }
    }
    p.segments = segments;
    write_sections(kSegmentsFile,
                   {{static_cast<std::uint32_t>(section_id::segments), encode_segments(p)}});
    last_stage_ = "segmentation";
    write_manifest("in-progress", last_stage_.c_str());
}

void checkpoint_manager::on_matrix_tile(std::size_t row_begin, std::size_t row_end,
                                        std::size_t n, std::span<const float> cells) {
    obs::span sp("ckpt.save.matrix_tile");
    matrix_tile_payload tile;
    tile.row_begin = row_begin;
    tile.row_end = row_end;
    tile.n = n;
    tile.cells.assign(cells.begin(), cells.end());
    write_sections(tile_file(tiles_spilled_).c_str(),
                   {{static_cast<std::uint32_t>(section_id::matrix_tile),
                     encode_matrix_tile(tile)}});
    ++tiles_spilled_;
    obs::counter_add("ckpt.tiles_spilled_total", 1.0);
}

void checkpoint_manager::on_matrix(const dissim::unique_segments& unique,
                                   const dissim::dissimilarity_matrix& matrix,
                                   const std::vector<std::vector<double>>& knn_curves) {
    obs::span sp("ckpt.save.matrix");
    std::vector<section> sections;
    sections.push_back(
        {static_cast<std::uint32_t>(section_id::unique), encode_unique(unique)});
    if (tiles_spilled_ > 0) {
        // Every cell already sits in the spilled tile files (written
        // atomically as each tile completed); re-serializing the whole
        // triangle here would momentarily double the matrix footprint —
        // exactly what a memory-pressured run cannot afford. The marker
        // tells load() where the cells live.
        matrix_tiled_marker marker;
        marker.n = matrix.size();
        marker.tile_count = tiles_spilled_;
        sections.push_back({static_cast<std::uint32_t>(section_id::matrix_tiled),
                            encode_matrix_tiled(marker)});
    } else {
        sections.push_back(
            {static_cast<std::uint32_t>(section_id::matrix), encode_matrix(matrix)});
    }
    if (!knn_curves.empty()) {
        sections.push_back(
            {static_cast<std::uint32_t>(section_id::knn), encode_knn(knn_curves)});
    }
    write_sections(kMatrixFile, std::move(sections));
    last_stage_ = "dissimilarity";
    write_manifest("in-progress", last_stage_.c_str());
}

void checkpoint_manager::on_neighbors(const dissim::unique_segments& unique,
                                      const dissim::capped_neighbors& neighbors,
                                      const std::vector<std::vector<double>>& knn_curves) {
    obs::span sp("ckpt.save.neighbors");
    // Sparse runs snapshot the capped lists instead of a matrix — typically
    // orders of magnitude smaller, and it resumes into an adopted
    // sparse_neighborhood serving bitwise the same values. Its own file
    // (never matrix.ckpt) keeps pre-sparse loaders oblivious: they see no
    // matrix snapshot and recompute, which is always correct.
    std::vector<section> sections;
    sections.push_back(
        {static_cast<std::uint32_t>(section_id::unique), encode_unique(unique)});
    sections.push_back({static_cast<std::uint32_t>(section_id::neighbors),
                        encode_neighbors(neighbors)});
    if (!knn_curves.empty()) {
        sections.push_back(
            {static_cast<std::uint32_t>(section_id::knn), encode_knn(knn_curves)});
    }
    write_sections(kNeighborsFile, std::move(sections));
    last_stage_ = "dissimilarity";
    write_manifest("in-progress", last_stage_.c_str());
}

void checkpoint_manager::on_clustering(const cluster::auto_cluster_result& clustering) {
    obs::span sp("ckpt.save.clustering");
    write_sections(kClusteringFile, {{static_cast<std::uint32_t>(section_id::clustering),
                                      encode_clustering(clustering)}});
    last_stage_ = "clustering";
    write_manifest("in-progress", last_stage_.c_str());
}

dissim::dissimilarity_matrix checkpoint_manager::load_tiled_matrix(
    const matrix_tiled_marker& marker) {
    obs::span sp("ckpt.load.tiles");
    sp.count("tiles", marker.tile_count);
    // Tiles must chain seamlessly over [0, n): each file carries its row
    // range, and any gap, overlap, or missing file fails the whole matrix
    // (the caller quarantines and recomputes — a half-trusted matrix is
    // worse than none). Cells concatenate into the triangular layout
    // directly: a run resuming a tiled spill is by definition under the
    // memory pressure that chose that layout.
    std::vector<float> cells;
    std::uint64_t next_row = 0;
    for (std::uint64_t k = 0; k < marker.tile_count; ++k) {
        const auto file = read_file(dir_ / tile_file(static_cast<std::size_t>(k)));
        if (!file.has_value()) {
            throw parse_error(message("ckpt: spilled tile file ", tile_file(k), " missing"));
        }
        std::vector<section> sections = checked_sections(*file, fp_);
        const section* tile_section = find_section(sections, section_id::matrix_tile);
        if (tile_section == nullptr) {
            throw parse_error(message("ckpt: ", tile_file(k), " has no tile section"));
        }
        matrix_tile_payload tile = decode_matrix_tile(tile_section->payload);
        if (tile.n != marker.n || tile.row_begin != next_row) {
            throw parse_error(message("ckpt: tile ", k, " covers rows [", tile.row_begin,
                                      ", ", tile.row_end, ") of ", tile.n, ", expected rows "
                                      "from ", next_row, " of ", marker.n));
        }
        next_row = tile.row_end;
        cells.insert(cells.end(), tile.cells.begin(), tile.cells.end());
    }
    if (next_row != marker.n) {
        throw parse_error(message("ckpt: spilled tiles stop at row ", next_row, " of ",
                                  marker.n));
    }
    return dissim::dissimilarity_matrix::from_upper(
        cells, static_cast<std::size_t>(marker.n), dissim::layout::triangular);
}

void checkpoint_manager::on_interrupted(const char* stage) {
    // Async contexts reach this via the cooperative cancellation points,
    // never from inside a signal handler, so file I/O is safe here. The
    // completed-stage snapshots are already on disk; only the fact and the
    // lost stage need recording.
    write_manifest("interrupted", stage);
    obs::counter_add("ckpt.interrupted_total", 1.0);
}

void checkpoint_manager::mark_complete() {
    write_manifest("complete", last_stage_.c_str());
}

restored_state checkpoint_manager::load(const std::vector<byte_vector>& all_messages,
                                        diag::error_sink& sink) {
    obs::span sp("ckpt.load");
    restored_state out;

    // Each file validates independently; a damaged one costs exactly its
    // own stage. quarantine() routes the failure through the sink so strict
    // mode throws and lenient mode records-and-recomputes, like every other
    // ingestion fault in the codebase.
    const auto quarantine = [&](const char* file, const std::string& why) {
        sink.fail({diag::category::checkpoint, diag::severity::error, 0, 0,
                   "checkpoint " + (dir_ / file).string() + ": " + why});
        obs::counter_add("ckpt.sections_rejected_total", 1.0);
    };

    // segments.ckpt -> seed.segments (+ surviving-message reconstruction).
    try {
        if (const auto file = read_file(dir_ / kSegmentsFile)) {
            std::vector<section> sections = checked_sections(*file, fp_);
            const section* seg = find_section(sections, section_id::segments);
            if (seg == nullptr) {
                throw parse_error("ckpt: segments section missing");
            }
            segments_payload p = decode_segments(seg->payload);
            std::vector<byte_vector> messages;
            messages.reserve(p.surviving.size());
            for (std::size_t idx : p.surviving) {
                if (idx >= all_messages.size()) {
                    throw parse_error(message("ckpt: surviving index ", idx,
                                              " beyond message count ", all_messages.size()));
                }
                messages.push_back(all_messages[idx]);
            }
            // The decoded ranges must actually segment the reconstructed
            // messages — the one property digests cannot vouch for.
            segmentation::validate_segmentation(messages, p.segments);
            out.messages = std::move(messages);
            out.surviving = std::move(p.surviving);
            out.seed.segments = std::move(p.segments);
            out.stages.emplace_back("segmentation");
        }
    } catch (const budget_exceeded_error&) {
        throw;
    } catch (const ftc::error& e) {
        quarantine(kSegmentsFile, e.what());
    }

    // matrix.ckpt -> seed.unique + seed.matrix (+ optional seed.knn_curves).
    try {
        if (const auto file = read_file(dir_ / kMatrixFile)) {
            std::vector<section> sections = checked_sections(*file, fp_);
            const section* uniq = find_section(sections, section_id::unique);
            const section* mat = find_section(sections, section_id::matrix);
            const section* tiled = find_section(sections, section_id::matrix_tiled);
            if (uniq == nullptr || (mat == nullptr && tiled == nullptr)) {
                throw parse_error("ckpt: unique/matrix section missing");
            }
            dissim::unique_segments unique = decode_unique(uniq->payload);
            dissim::dissimilarity_matrix matrix =
                mat != nullptr ? decode_matrix(mat->payload)
                               : load_tiled_matrix(decode_matrix_tiled(tiled->payload));
            if (matrix.size() != unique.size()) {
                throw parse_error(message("ckpt: matrix of ", matrix.size(), " rows for ",
                                          unique.size(), " unique segments"));
            }
            // k-NN curves are an optimization, not state: a damaged curve
            // set costs one batched row scan, not the whole matrix.
            if (const section* knn = find_section(sections, section_id::knn)) {
                out.seed.knn_curves = decode_knn(knn->payload);
            }
            out.seed.unique = std::move(unique);
            out.seed.matrix = std::move(matrix);
            out.stages.emplace_back("dissimilarity");
        }
    } catch (const budget_exceeded_error&) {
        throw;
    } catch (const ftc::error& e) {
        quarantine(kMatrixFile, e.what());
    }

    // neighbors.ckpt -> seed.unique + seed.neighbors (sparse-mode snapshot).
    // The matrix snapshot wins when both restored: it carries every pair,
    // not just the capped lists. Either seeds a bitwise-identical resume.
    try {
        if (!out.seed.matrix.has_value()) {
            if (const auto file = read_file(dir_ / kNeighborsFile)) {
                std::vector<section> sections = checked_sections(*file, fp_);
                const section* uniq = find_section(sections, section_id::unique);
                const section* nbrs = find_section(sections, section_id::neighbors);
                if (uniq == nullptr || nbrs == nullptr) {
                    throw parse_error("ckpt: unique/neighbors section missing");
                }
                dissim::unique_segments unique = decode_unique(uniq->payload);
                dissim::capped_neighbors neighbors = decode_neighbors(nbrs->payload);
                if (neighbors.size() != unique.size()) {
                    throw parse_error(message("ckpt: neighbor lists for ", neighbors.size(),
                                              " points but ", unique.size(),
                                              " unique segments"));
                }
                if (const section* knn = find_section(sections, section_id::knn)) {
                    out.seed.knn_curves = decode_knn(knn->payload);
                }
                out.seed.unique = std::move(unique);
                out.seed.neighbors = std::move(neighbors);
                out.stages.emplace_back("dissimilarity");
            }
        }
    } catch (const budget_exceeded_error&) {
        throw;
    } catch (const ftc::error& e) {
        quarantine(kNeighborsFile, e.what());
    }

    // clustering.ckpt -> seed.clustering.
    try {
        if (const auto file = read_file(dir_ / kClusteringFile)) {
            std::vector<section> sections = checked_sections(*file, fp_);
            const section* clu = find_section(sections, section_id::clustering);
            if (clu == nullptr) {
                throw parse_error("ckpt: clustering section missing");
            }
            cluster::auto_cluster_result clustering = decode_clustering(clu->payload);
            // When the matrix was restored too, the label vector must index
            // it; when it was not, the deterministic recompute reproduces
            // the same unique-segment count (same input + options, enforced
            // by the fingerprint), so the check happens where it can.
            if (out.seed.matrix.has_value() &&
                clustering.labels.labels.size() != out.seed.matrix->size()) {
                throw parse_error(message("ckpt: ", clustering.labels.labels.size(),
                                          " labels for a ", out.seed.matrix->size(),
                                          "-row matrix"));
            }
            if (out.seed.neighbors.has_value() &&
                clustering.labels.labels.size() != out.seed.neighbors->size()) {
                throw parse_error(message("ckpt: ", clustering.labels.labels.size(),
                                          " labels for ", out.seed.neighbors->size(),
                                          " neighbor lists"));
            }
            out.seed.clustering = std::move(clustering);
            out.stages.emplace_back("clustering");
        }
    } catch (const budget_exceeded_error&) {
        throw;
    } catch (const ftc::error& e) {
        quarantine(kClusteringFile, e.what());
    }

    obs::counter_add("ckpt.stages_restored_total", static_cast<double>(out.stages.size()));
    return out;
}

}  // namespace ftc::ckpt
