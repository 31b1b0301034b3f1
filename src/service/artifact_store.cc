#include "service/artifact_store.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/error.hh"
#include "common/faultpoint.hh"

namespace qompress {

namespace {

/** "QST1": identifies a file as an artifact log. */
constexpr std::uint32_t kStoreMagic = 0x31545351u;

/** "QREC": leads every frame; a cheap resync sentinel for recovery. */
constexpr std::uint32_t kFrameMagic = 0x43455251u;

/** Frame prefix: magic + body length + body CRC. */
constexpr std::uint64_t kFrameHeaderBytes = 16;

/** Store prefix: magic + artifact format version. */
constexpr std::uint64_t kStoreHeaderBytes = 8;

// Every syscall below consults its named fault point first, so the
// fault-matrix tests can fail any call at any index. A fired Eintr is
// delivered as -1/EINTR (the retry loops absorb it); a fired ShortIo
// on a transfer clips the byte count (still a successful syscall); a
// fired ShortIo on a non-transfer call degrades to a plain failure.

int
xopen(const char *path, int flags, mode_t mode)
{
    for (;;) {
        const FaultFire f = QFAULT_POINT("store.open");
        if (f.fired && f.kind == FaultKind::Eintr)
            continue;
        if (f.fired) {
            errno = f.err;
            return -1;
        }
        const int fd = ::open(path, flags, mode);
        if (fd < 0 && errno == EINTR)
            continue;
        return fd;
    }
}

int
xfstat(int fd, struct stat *st)
{
    const FaultFire f = QFAULT_POINT("store.fstat");
    if (f.fired) {
        errno = f.err;
        return -1;
    }
    return ::fstat(fd, st);
}

ssize_t
xpread(int fd, void *buf, std::size_t n, std::uint64_t off)
{
    const FaultFire f = QFAULT_POINT("store.pread");
    if (f.fired) {
        if (f.kind != FaultKind::ShortIo) {
            errno = f.err;
            return -1;
        }
        n = static_cast<std::size_t>(
            std::min<std::uint64_t>(n, f.bytes));
    }
    return ::pread(fd, buf, n, static_cast<off_t>(off));
}

ssize_t
xpwrite(int fd, const void *buf, std::size_t n, std::uint64_t off)
{
    const FaultFire f = QFAULT_POINT("store.pwrite");
    if (f.fired) {
        if (f.kind != FaultKind::ShortIo) {
            errno = f.err;
            return -1;
        }
        n = static_cast<std::size_t>(
            std::min<std::uint64_t>(n, f.bytes));
    }
    return ::pwrite(fd, buf, n, static_cast<off_t>(off));
}

int
xfsync(int fd)
{
    for (;;) {
        const FaultFire f = QFAULT_POINT("store.fsync");
        if (f.fired && f.kind == FaultKind::Eintr)
            continue;
        if (f.fired) {
            errno = f.err;
            return -1;
        }
        const int rc = ::fsync(fd);
        if (rc != 0 && errno == EINTR)
            continue;
        return rc;
    }
}

int
xftruncate(int fd, std::uint64_t len)
{
    const FaultFire f = QFAULT_POINT("store.ftruncate");
    if (f.fired) {
        errno = f.err;
        return -1;
    }
    return ::ftruncate(fd, static_cast<off_t>(len));
}

int
xrename(const char *from, const char *to)
{
    const FaultFire f = QFAULT_POINT("store.rename");
    if (f.fired) {
        errno = f.err;
        return -1;
    }
    return ::rename(from, to);
}

int
xunlink(const char *path)
{
    const FaultFire f = QFAULT_POINT("store.unlink");
    if (f.fired) {
        errno = f.err;
        return -1;
    }
    return ::unlink(path);
}

int
xclose(int fd)
{
    const FaultFire f = QFAULT_POINT("store.close");
    if (f.fired) {
        errno = f.err;
        return -1;
    }
    return ::close(fd);
}

bool
preadExact(int fd, void *buf, std::size_t n, std::uint64_t off)
{
    auto *p = static_cast<std::uint8_t *>(buf);
    while (n > 0) {
        const ssize_t got = xpread(fd, p, n, off);
        if (got < 0 && errno == EINTR)
            continue; // interrupted, not failed: retry the same range
        if (got <= 0)
            return false;
        p += got;
        off += static_cast<std::uint64_t>(got);
        n -= static_cast<std::size_t>(got);
    }
    return true;
}

bool
pwriteExact(int fd, const void *buf, std::size_t n, std::uint64_t off)
{
    const auto *p = static_cast<const std::uint8_t *>(buf);
    while (n > 0) {
        const ssize_t put = xpwrite(fd, p, n, off);
        if (put < 0 && errno == EINTR)
            continue; // interrupted, not failed: retry the same range
        if (put <= 0)
            return false;
        p += put;
        off += static_cast<std::uint64_t>(put);
        n -= static_cast<std::size_t>(put);
    }
    return true;
}

std::vector<std::uint8_t>
frameFor(const ArtifactKey &key, const std::vector<std::uint8_t> &blob)
{
    ByteWriter body;
    encodeArtifactKey(body, key);
    body.bytes(blob.data(), blob.size());

    ByteWriter frame;
    frame.u32(kFrameMagic);
    frame.u64(body.size());
    frame.u32(crc32(body.data().data(), body.size()));
    frame.bytes(body.data().data(), body.size());
    return frame.take();
}

/** Directory holding @p path ("." for a bare filename). */
std::string
dirOf(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    return slash == 0 ? "/" : path.substr(0, slash);
}

} // namespace

FsyncPolicy
fsyncPolicyFromString(const std::string &name)
{
    if (name == "never")
        return FsyncPolicy::Never;
    if (name == "interval")
        return FsyncPolicy::Interval;
    if (name == "always")
        return FsyncPolicy::Always;
    QFATAL("unknown fsync policy '", name,
           "' (expected never|interval|always)");
}

const char *
fsyncPolicyName(FsyncPolicy policy)
{
    switch (policy) {
    case FsyncPolicy::Never:
        return "never";
    case FsyncPolicy::Interval:
        return "interval";
    case FsyncPolicy::Always:
        return "always";
    }
    return "?";
}

ArtifactStore::ArtifactStore(std::string path, StoreOptions opts)
    : path_(std::move(path)), opts_(opts)
{
    std::lock_guard<std::mutex> lk(mu_);
    openAndRecoverLocked();
}

ArtifactStore::~ArtifactStore()
{
    if (fd_ >= 0)
        (void)xclose(fd_); // nothing sane to do with a close failure
}

void
ArtifactStore::openAndRecoverLocked()
{
    // A crashed prior compaction may have left its temp file behind;
    // it is garbage by definition (rename never happened), so clear it
    // before it can shadow a future compact(). ENOENT is the norm.
    (void)xunlink((path_ + ".compact.tmp").c_str());

    fd_ = xopen(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    QFATAL_IF(fd_ < 0, "cannot open artifact store '", path_,
              "': ", std::strerror(errno));

    struct stat st;
    QFATAL_IF(xfstat(fd_, &st) != 0, "cannot stat artifact store '",
              path_, "': ", std::strerror(errno));
    const auto file_size = static_cast<std::uint64_t>(st.st_size);

    // Header check. Anything but (our magic, our format version) means
    // the file is foreign or written by a different build: start cold.
    bool fresh = true;
    if (file_size >= kStoreHeaderBytes) {
        std::uint8_t hdr[kStoreHeaderBytes];
        if (preadExact(fd_, hdr, sizeof hdr, 0)) {
            ByteReader r(hdr, sizeof hdr, "artifact store header");
            fresh = r.u32() != kStoreMagic ||
                    r.u32() != kArtifactFormatVersion;
        }
    }
    if (fresh) {
        ByteWriter hdr;
        hdr.u32(kStoreMagic);
        hdr.u32(kArtifactFormatVersion);
        QFATAL_IF(xftruncate(fd_, 0) != 0 ||
                      !pwriteExact(fd_, hdr.data().data(), hdr.size(), 0),
                  "cannot initialize artifact store '", path_,
                  "': ", std::strerror(errno));
        end_ = kStoreHeaderBytes;
        return;
    }

    // Scan frames until the end of the file or the first bad frame.
    // Every check failure below is "torn tail": keep what came before.
    std::uint64_t off = kStoreHeaderBytes;
    while (off + kFrameHeaderBytes <= file_size) {
        std::uint8_t fh[kFrameHeaderBytes];
        if (!preadExact(fd_, fh, sizeof fh, off))
            break;
        ByteReader r(fh, sizeof fh, "artifact store frame");
        if (r.u32() != kFrameMagic)
            break;
        const std::uint64_t body_len = r.u64();
        const std::uint32_t declared_crc = r.u32();
        if (body_len > file_size - off - kFrameHeaderBytes)
            break;
        std::vector<std::uint8_t> body(body_len);
        if (!preadExact(fd_, body.data(), body.size(),
                        off + kFrameHeaderBytes))
            break;
        if (crc32(body.data(), body.size()) != declared_crc)
            break;

        ArtifactKey key;
        try {
            ByteReader br(body.data(), body.size(),
                          "artifact store frame body");
            key = decodeArtifactKey(br);
            Slot slot;
            slot.offset = off + kFrameHeaderBytes +
                          (body.size() - br.remaining());
            slot.size = br.remaining();
            if (!index_.emplace(key, slot).second) {
                index_[key] = slot; // later frame wins
                ++dead_;
            }
        } catch (const FatalError &) {
            break; // CRC passed but the body is still malformed
        }
        off += kFrameHeaderBytes + body_len;
    }

    end_ = off;
    if (end_ < file_size) {
        // Drop the torn tail so future appends start on a clean
        // frame boundary. Failure here is not fatal: the scan already
        // ignores everything past end_, appends just go further out.
        if (xftruncate(fd_, end_) != 0)
            end_ = file_size;
    }
}

bool
ArtifactStore::syncAppendLocked(std::uint64_t appended)
{
    if (opts_.fsync == FsyncPolicy::Never)
        return true;
    unsynced_ += appended;
    if (opts_.fsync == FsyncPolicy::Interval &&
        unsynced_ < opts_.fsyncIntervalBytes)
        return true;
    ++fsyncs_;
    if (xfsync(fd_) != 0)
        return false;
    unsynced_ = 0;
    return true;
}

bool
ArtifactStore::put(const ArtifactKey &key,
                   const std::vector<std::uint8_t> &blob)
{
    const std::vector<std::uint8_t> frame = frameFor(key, blob);
    std::lock_guard<std::mutex> lk(mu_);
    if (fd_ < 0)
        return false;
    if (!pwriteExact(fd_, frame.data(), frame.size(), end_)) {
        // A partial append leaves a torn tail; recovery handles it,
        // but trim now so this process's next put starts clean.
        ++ioErrors_;
        (void)xftruncate(fd_, end_);
        return false;
    }
    if (!syncAppendLocked(frame.size())) {
        // The bytes are written but not durable; report failure (the
        // caller acknowledged nothing) and drop the frame so a false
        // put never leaves a record this process would serve.
        ++ioErrors_;
        (void)xftruncate(fd_, end_);
        return false;
    }
    Slot slot;
    slot.size = blob.size();
    slot.offset = end_ + frame.size() - blob.size();
    if (!index_.emplace(key, slot).second) {
        index_[key] = slot;
        ++dead_;
    }
    end_ += frame.size();
    return true;
}

bool
ArtifactStore::readBlobLocked(const Slot &slot,
                              std::vector<std::uint8_t> &out)
{
    out.resize(slot.size);
    return preadExact(fd_, out.data(), out.size(), slot.offset);
}

StoreStatus
ArtifactStore::loadStatus(const ArtifactKey &key,
                          std::vector<std::uint8_t> &out)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (fd_ < 0)
        return StoreStatus::Error;
    const auto it = index_.find(key);
    if (it == index_.end())
        return StoreStatus::Miss;
    if (!readBlobLocked(it->second, out)) {
        ++ioErrors_;
        return StoreStatus::Error;
    }
    return StoreStatus::Ok;
}

std::optional<std::uint64_t>
ArtifactStore::blobSize(const ArtifactKey &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = index_.find(key);
    if (it == index_.end())
        return std::nullopt;
    return it->second.size;
}

bool
ArtifactStore::probe()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (fd_ < 0)
        return false;
    std::uint8_t hdr[kStoreHeaderBytes];
    if (!preadExact(fd_, hdr, sizeof hdr, 0)) {
        ++ioErrors_;
        return false;
    }
    ByteReader r(hdr, sizeof hdr, "artifact store header");
    if (r.u32() != kStoreMagic || r.u32() != kArtifactFormatVersion) {
        ++ioErrors_;
        return false;
    }
    return true;
}

std::size_t
ArtifactStore::records()
{
    std::lock_guard<std::mutex> lk(mu_);
    return index_.size();
}

std::vector<ArtifactKey>
ArtifactStore::keys()
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<ArtifactKey> out;
    out.reserve(index_.size());
    for (const auto &entry : index_)
        out.push_back(entry.first);
    return out;
}

std::size_t
ArtifactStore::deadRecords()
{
    std::lock_guard<std::mutex> lk(mu_);
    return dead_;
}

std::uint64_t
ArtifactStore::bytesOnDisk()
{
    std::lock_guard<std::mutex> lk(mu_);
    return end_;
}

std::uint64_t
ArtifactStore::ioErrors()
{
    std::lock_guard<std::mutex> lk(mu_);
    return ioErrors_;
}

std::uint64_t
ArtifactStore::fsyncs()
{
    std::lock_guard<std::mutex> lk(mu_);
    return fsyncs_;
}

void
ArtifactStore::compact()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (fd_ < 0 || dead_ == 0)
        return;

    const std::string tmp_path = path_ + ".compact.tmp";
    const int tmp = xopen(tmp_path.c_str(),
                          O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    QFATAL_IF(tmp < 0, "cannot create '", tmp_path,
              "' for compaction: ", std::strerror(errno));

    ByteWriter hdr;
    hdr.u32(kStoreMagic);
    hdr.u32(kArtifactFormatVersion);
    std::uint64_t out_off = 0;
    bool ok = pwriteExact(tmp, hdr.data().data(), hdr.size(), out_off);
    out_off += hdr.size();

    std::unordered_map<ArtifactKey, Slot, ArtifactKeyHash> new_index;
    std::vector<std::uint8_t> blob;
    for (const auto &entry : index_) {
        if (!ok)
            break;
        ok = readBlobLocked(entry.second, blob);
        if (!ok)
            break;
        const std::vector<std::uint8_t> frame = frameFor(entry.first, blob);
        ok = pwriteExact(tmp, frame.data(), frame.size(), out_off);
        Slot slot;
        slot.size = blob.size();
        slot.offset = out_off + frame.size() - blob.size();
        new_index.emplace(entry.first, slot);
        out_off += frame.size();
    }

    // The rewritten log must be on disk BEFORE the rename: otherwise
    // a crash between rename and writeback could leave the store's
    // only name pointing at an empty (or partial) file.
    if (ok) {
        ++fsyncs_;
        ok = xfsync(tmp) == 0;
    }

    if (!ok) {
        ++ioErrors_;
        (void)xclose(tmp);
        (void)xunlink(tmp_path.c_str());
        QFATAL("compaction of artifact store '", path_,
               "' failed: ", std::strerror(errno));
    }
    if (xrename(tmp_path.c_str(), path_.c_str()) != 0) {
        ++ioErrors_;
        const std::string why = std::strerror(errno);
        (void)xclose(tmp);
        (void)xunlink(tmp_path.c_str());
        QFATAL("cannot rename '", tmp_path, "' over '", path_,
               "': ", why);
    }
    // Make the swap itself durable: the rename lives in the directory,
    // so sync that too. Best-effort -- both the old and the new log
    // are valid stores, so a lost rename only costs the compaction.
    const int dirfd = xopen(dirOf(path_).c_str(),
                            O_RDONLY | O_DIRECTORY | O_CLOEXEC, 0);
    if (dirfd >= 0) {
        ++fsyncs_;
        if (xfsync(dirfd) != 0)
            ++ioErrors_;
        (void)xclose(dirfd);
    } else {
        ++ioErrors_;
    }
    (void)xclose(fd_);
    fd_ = tmp;
    end_ = out_off;
    unsynced_ = 0;
    dead_ = 0;
    index_ = std::move(new_index);
}

} // namespace qompress
