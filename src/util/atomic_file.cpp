#include "util/atomic_file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "util/check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FTC_ATOMIC_FILE_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace ftc::util {

namespace {

[[noreturn]] void raise_io(const char* verb, const std::filesystem::path& path, int err) {
    throw error(message("atomic_write_file: cannot ", verb, " ", path.string(), ": ",
                        std::strerror(err)));
}

#ifdef FTC_ATOMIC_FILE_POSIX

/// Full write with EINTR/short-write handling: a signal landing mid-write
/// (the graceful-shutdown SIGINT path makes that routine, not exotic) must
/// restart the interrupted syscall, and a short write must continue from
/// where it stopped — failing the whole atomic write over either would turn
/// a survivable interruption into a lost exporter file.
bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

/// open(2) restarted on EINTR (it is interruptible on some filesystems and
/// is not covered by SA_RESTART semantics everywhere).
int open_retry(const char* path, int flags, mode_t mode) {
    for (;;) {
        const int fd = ::open(path, flags, mode);
        if (fd >= 0 || errno != EINTR) {
            return fd;
        }
    }
}

/// fsync(2) restarted on EINTR. Note close(2) is deliberately NOT retried:
/// POSIX leaves the fd state unspecified after EINTR from close, and
/// retrying can double-close an fd another thread just received.
int fsync_retry(int fd) {
    for (;;) {
        const int rc = ::fsync(fd);
        if (rc == 0 || errno != EINTR) {
            return rc;
        }
    }
}

/// fsync the directory holding \p path so the rename is itself durable.
/// Best-effort: some filesystems reject directory fsync; the data fsync
/// already happened, so a failure here is not worth failing the run over.
void sync_parent_dir(const std::filesystem::path& path) {
    std::filesystem::path dir = path.parent_path();
    if (dir.empty()) {
        dir = ".";
    }
    const int fd = open_retry(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC, 0);
    if (fd >= 0) {
        fsync_retry(fd);
        ::close(fd);
    }
}

#endif  // FTC_ATOMIC_FILE_POSIX

}  // namespace

void atomic_write_file(const std::filesystem::path& path, byte_view bytes) {
    std::filesystem::path tmp = path;
    tmp += ".tmp";
#ifdef FTC_ATOMIC_FILE_POSIX
    const int fd = open_retry(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        raise_io("open", tmp, errno);
    }
    if (!write_all(fd, bytes.data(), bytes.size())) {
        const int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        raise_io("write", tmp, err);
    }
    if (fsync_retry(fd) != 0) {
        const int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        raise_io("fsync", tmp, err);
    }
    if (::close(fd) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        raise_io("close", tmp, err);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        raise_io("rename into", path, err);
    }
    sync_parent_dir(path);
#else
    // Portable fallback: still write-temp-then-rename (atomic on every
    // mainstream filesystem), minus the fsync durability barrier.
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            raise_io("open", tmp, errno);
        }
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        out.flush();
        if (!out) {
            const int err = errno;
            out.close();
            std::remove(tmp.string().c_str());
            raise_io("write", tmp, err);
        }
    }
    if (std::rename(tmp.string().c_str(), path.string().c_str()) != 0) {
        const int err = errno;
        std::remove(tmp.string().c_str());
        raise_io("rename into", path, err);
    }
#endif
}

void atomic_write_file(const std::filesystem::path& path, std::string_view text) {
    atomic_write_file(path,
                      byte_view{reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

byte_vector read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw error("cannot open " + path.string());
    }
    byte_vector bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (in.bad()) {
        throw error("cannot read " + path.string());
    }
    return bytes;
}

}  // namespace ftc::util
