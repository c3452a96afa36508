#include "common/mmap_file.hh"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/status.hh"

namespace copernicus {

namespace {

std::size_t
pageFloor(std::size_t offset)
{
    static const std::size_t page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return offset - offset % page;
}

} // namespace

MmapFile::MmapFile(const std::string &path) : filePath(path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    COPERNICUS_FATAL_IF(fd < 0, "mmap: cannot open '" + path +
                                    "': " + std::strerror(errno));
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        fatal("mmap: cannot stat '" + path +
              "': " + std::strerror(err));
    }
    length = static_cast<std::size_t>(st.st_size);
    if (length == 0) {
        ::close(fd);
        return; // empty file: valid, nothing to map
    }
    void *mapped = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd,
                          0);
    const int err = errno;
    ::close(fd); // the mapping keeps its own file reference
    COPERNICUS_FATAL_IF(mapped == MAP_FAILED, "mmap: cannot map '" + path +
                                                  "': " + std::strerror(err));
    base = static_cast<const unsigned char *>(mapped);
    // Scans are forward-only; let the kernel read ahead aggressively.
    ::madvise(mapped, length, MADV_SEQUENTIAL);
}

MmapFile::~MmapFile() { unmap(); }

MmapFile::MmapFile(MmapFile &&other) noexcept
    : filePath(std::move(other.filePath)), base(other.base),
      length(other.length), droppedBelow(other.droppedBelow)
{
    other.base = nullptr;
    other.length = 0;
    other.droppedBelow = 0;
}

MmapFile &
MmapFile::operator=(MmapFile &&other) noexcept
{
    if (this != &other) {
        unmap();
        filePath = std::move(other.filePath);
        base = other.base;
        length = other.length;
        droppedBelow = other.droppedBelow;
        other.base = nullptr;
        other.length = 0;
        other.droppedBelow = 0;
    }
    return *this;
}

void
MmapFile::unmap()
{
    if (base != nullptr) {
        ::munmap(const_cast<unsigned char *>(base), length);
        base = nullptr;
        length = 0;
    }
}

void
MmapFile::resetDropWindow()
{
    droppedBelow = 0;
}

void
MmapFile::dropPagesBefore(std::size_t offset)
{
    if (base == nullptr)
        return;
    const std::size_t end = pageFloor(std::min(offset, length));
    if (end <= droppedBelow)
        return;
    ::madvise(const_cast<unsigned char *>(base) + droppedBelow,
              end - droppedBelow, MADV_DONTNEED);
    droppedBelow = end;
}

} // namespace copernicus
