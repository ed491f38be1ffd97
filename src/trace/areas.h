// Machine-readable form of the paper's Table 1: the storage areas of a
// RAP-WAM Stack Set and the object classes allocated in them, with
// their WAM-heritage, locking and locality attributes.
//
// Every data memory reference the emulator issues carries an ObjClass
// tag. The hybrid cache protocol keys its write policy off the
// locality attribute (Local => copy-back, Global => write-through),
// exactly as the paper's firmware-controlled hybrid cache does.
#pragma once

#include <array>
#include <string_view>

#include "support/common.h"

namespace rapwam {

/// Physical storage areas of one Stack Set (one per PE).
enum class Area : u8 {
  Heap = 0,     ///< global term storage
  Local,        ///< environments + parcall frames ("Local stack")
  Control,      ///< choice points + markers ("Control stack")
  Trail,        ///< conditional binding trail
  Pdl,          ///< unification push-down list
  GoalStack,    ///< goal frames awaiting execution (work queue)
  MsgBuffer,    ///< kill/redo messages between PEs
  kCount
};
inline constexpr std::size_t kAreaCount = static_cast<std::size_t>(Area::kCount);

/// Object classes from Table 1 (what a reference touches).
enum class ObjClass : u8 {
  EnvControl = 0,   ///< environment control words (CE, CP, size)
  EnvPermVar,       ///< permanent (Y) variables
  ChoicePoint,      ///< choice point words
  HeapTerm,         ///< heap cells
  TrailEntry,       ///< trail entries
  PdlEntry,         ///< PDL entries
  ParcallLocal,     ///< parcall frame, local bookkeeping words
  ParcallGlobal,    ///< parcall frame, slot status words (read remotely)
  ParcallCount,     ///< parcall frame, locked counters
  Marker,           ///< stack-section markers
  GoalFrame,        ///< goal stack frames (locked)
  Message,          ///< message-buffer words (locked)
  kCount
};
inline constexpr std::size_t kObjClassCount = static_cast<std::size_t>(ObjClass::kCount);

enum class Locality : u8 { Local = 0, Global = 1 };

/// One row of Table 1.
struct StorageTraits {
  ObjClass cls;
  Area area;
  bool in_wam;        ///< present in the sequential WAM?
  bool locked;        ///< accessed under a lock?
  Locality locality;  ///< may another PE touch it?
};

/// The twelve rows of Table 1, row for row, indexed by ObjClass.
inline constexpr std::array<StorageTraits, kObjClassCount> kStorageTable = {{
    {ObjClass::EnvControl, Area::Local, true, false, Locality::Local},
    {ObjClass::EnvPermVar, Area::Local, true, false, Locality::Global},
    {ObjClass::ChoicePoint, Area::Control, true, false, Locality::Local},
    {ObjClass::HeapTerm, Area::Heap, true, false, Locality::Global},
    {ObjClass::TrailEntry, Area::Trail, true, false, Locality::Local},
    {ObjClass::PdlEntry, Area::Pdl, true, false, Locality::Local},
    {ObjClass::ParcallLocal, Area::Local, false, false, Locality::Local},
    {ObjClass::ParcallGlobal, Area::Local, false, false, Locality::Global},
    {ObjClass::ParcallCount, Area::Local, false, true, Locality::Global},
    {ObjClass::Marker, Area::Control, false, false, Locality::Local},
    {ObjClass::GoalFrame, Area::GoalStack, false, true, Locality::Global},
    {ObjClass::Message, Area::MsgBuffer, false, true, Locality::Global},
}};
static_assert(
    [] {
      for (std::size_t i = 0; i < kObjClassCount; ++i)
        if (kStorageTable[i].cls != static_cast<ObjClass>(i)) return false;
      return true;
    }(),
    "Table 1 rows must be in ObjClass order: traits_of indexes them by class");

/// Inline: the memory bus looks up every reference's area here.
constexpr const StorageTraits& traits_of(ObjClass c) {
  return kStorageTable[static_cast<std::size_t>(c)];
}

std::string_view area_name(Area a);
std::string_view obj_class_name(ObjClass c);
std::string_view locality_name(Locality l);

}  // namespace rapwam
