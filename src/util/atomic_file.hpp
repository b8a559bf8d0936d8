/// \file atomic_file.hpp
/// Crash-durable whole-file replacement (write-temp, fsync, rename) and
/// its read-side counterpart.
///
/// Every artifact a run leaves behind — checkpoints (ftc::ckpt), trace and
/// metrics exports, run manifests, reports — must be either the complete
/// old version or the complete new version on disk, even if the process is
/// killed or the machine loses power mid-write. atomic_write_file provides
/// that guarantee the standard POSIX way: the bytes go to `<path>.tmp` on
/// the same filesystem, are fsync'ed, and only then renamed over the target
/// (rename(2) is atomic within a filesystem); the containing directory is
/// fsync'ed afterwards so the rename itself survives a crash. Failures
/// throw ftc::error naming the path and the OS error — a run must fail
/// loudly when its outputs cannot be written, not succeed with a truncated
/// file nobody notices.
#pragma once

#include <filesystem>
#include <string_view>

#include "util/byteio.hpp"

namespace ftc::util {

/// Atomically replace \p path with \p bytes (write `<path>.tmp`, fsync,
/// rename, fsync directory). Throws ftc::error on any failure; the
/// temporary file is removed on the error paths, and the previous content
/// of \p path — if any — is left untouched.
void atomic_write_file(const std::filesystem::path& path, byte_view bytes);

/// Text overload of atomic_write_file.
void atomic_write_file(const std::filesystem::path& path, std::string_view text);

/// The whole content of \p path. Throws ftc::error naming the path when it
/// cannot be opened or read.
byte_vector read_file(const std::filesystem::path& path);

}  // namespace ftc::util
