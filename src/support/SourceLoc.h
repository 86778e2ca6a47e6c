//===--- SourceLoc.h - Source locations and ranges --------------*- C++ -*-==//
//
// Part of the esplang project: a reproduction of "ESP: A Language for
// Programmable Devices" (PLDI 2001).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight source locations. A SourceLoc identifies a byte offset in a
/// buffer owned by a SourceManager; line/column are computed on demand.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_SUPPORT_SOURCELOC_H
#define ESP_SUPPORT_SOURCELOC_H

#include <cstdint>

namespace esp {

/// A position inside a source buffer registered with a SourceManager.
///
/// FileId 0 with Offset 0 is the canonical "unknown" location produced by
/// the default constructor; isValid() distinguishes it from real locations.
class SourceLoc {
public:
  SourceLoc() = default;
  SourceLoc(uint32_t FileId, uint32_t Offset)
      : FileId(FileId), Offset(Offset), Valid(true) {}

  bool isValid() const { return Valid; }
  uint32_t getFileId() const { return FileId; }
  uint32_t getOffset() const { return Offset; }

  friend bool operator==(const SourceLoc &A, const SourceLoc &B) {
    return A.Valid == B.Valid && A.FileId == B.FileId && A.Offset == B.Offset;
  }
  friend bool operator!=(const SourceLoc &A, const SourceLoc &B) {
    return !(A == B);
  }

private:
  uint32_t FileId = 0;
  uint32_t Offset = 0;
  bool Valid = false;
};

} // namespace esp

#endif // ESP_SUPPORT_SOURCELOC_H
