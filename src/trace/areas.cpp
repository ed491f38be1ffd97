#include "trace/areas.h"

namespace rapwam {

std::string_view area_name(Area a) {
  switch (a) {
    case Area::Heap: return "Heap";
    case Area::Local: return "Local";
    case Area::Control: return "Control";
    case Area::Trail: return "Trail";
    case Area::Pdl: return "PDL";
    case Area::GoalStack: return "GoalStack";
    case Area::MsgBuffer: return "MsgBuffer";
    case Area::kCount: break;
  }
  return "?";
}

std::string_view obj_class_name(ObjClass c) {
  switch (c) {
    case ObjClass::EnvControl: return "Envts./control";
    case ObjClass::EnvPermVar: return "Envts./P.Vars";
    case ObjClass::ChoicePoint: return "Choice points";
    case ObjClass::HeapTerm: return "Heap";
    case ObjClass::TrailEntry: return "Trail entries";
    case ObjClass::PdlEntry: return "PDL entries";
    case ObjClass::ParcallLocal: return "Parcall F./Local";
    case ObjClass::ParcallGlobal: return "Parcall F./Global";
    case ObjClass::ParcallCount: return "Parcall F./Counts";
    case ObjClass::Marker: return "Markers";
    case ObjClass::GoalFrame: return "Goal Frames";
    case ObjClass::Message: return "Messages";
    case ObjClass::kCount: break;
  }
  return "?";
}

std::string_view locality_name(Locality l) {
  return l == Locality::Local ? "Local" : "Global";
}

}  // namespace rapwam
