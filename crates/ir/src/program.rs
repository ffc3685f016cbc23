//! The in-memory program: arenas for functions, blocks, instructions,
//! top-level values, and abstract objects.

use crate::ids::{BlockId, FuncId, InstId, ObjId, ValueId};
use crate::inst::{Block, Inst};
use vsfs_adt::{FxHashMap, IndexVec};

/// What kind of memory an abstract object models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjKind {
    /// A stack allocation site within `FuncId`.
    Stack(FuncId),
    /// A heap allocation site within `FuncId` (`malloc` and friends).
    Heap(FuncId),
    /// A global variable's storage.
    Global,
    /// A function, as the target of function pointers.
    Function(FuncId),
    /// Field `offset` of base object `base` (`f_k ∈ F`, Table I).
    Field { base: ObjId, offset: u32 },
    /// The singleton null pseudo-object. `p = null` is modelled as an
    /// allocation of this object, so "may be null" is an ordinary
    /// points-to fact and strong updates kill it like any other target.
    Null,
}

/// An abstract address-taken object (`o ∈ A`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Object {
    /// Diagnostic name (e.g. the alloc-site name from the textual form).
    pub name: String,
    /// What the object models.
    pub kind: ObjKind,
    /// Number of modelled fields for aggregates; `0` or `1` means scalar
    /// (field accesses collapse to the object itself).
    pub num_fields: u32,
    /// Arrays (and other summarised collections) can never be strongly
    /// updated.
    pub is_array: bool,
}

impl Object {
    /// Returns `true` if this object models heap memory.
    pub fn is_heap(&self) -> bool {
        matches!(self.kind, ObjKind::Heap(_))
    }

    /// Returns `true` if this object is a function address.
    pub fn is_function(&self) -> bool {
        matches!(self.kind, ObjKind::Function(_))
    }

    /// Returns `true` if this object is a field of another object.
    pub fn is_field(&self) -> bool {
        matches!(self.kind, ObjKind::Field { .. })
    }

    /// Returns `true` if this object is the null pseudo-object.
    pub fn is_null(&self) -> bool {
        matches!(self.kind, ObjKind::Null)
    }
}

/// How a top-level value is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDef {
    /// Defined by an instruction (filled in when the instruction is added).
    Inst(InstId),
    /// The `i`-th parameter of a function (defined by its `FUNENTRY`).
    Param(FuncId, u32),
    /// A global pointer: always points to exactly its global object.
    GlobalPtr(ObjId),
    /// Declared but not yet defined (transient during construction; the
    /// verifier rejects programs that still contain this).
    Undefined,
}

/// A top-level variable (`p ∈ P`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value {
    /// Name as written in the textual form (unique within its function, or
    /// program-wide for globals).
    pub name: String,
    /// The function the value belongs to; `None` for globals.
    pub func: Option<FuncId>,
    /// The single definition of the value (partial SSA).
    pub def: ValueDef,
}

/// A function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function name (without the `@`).
    pub name: String,
    /// Parameter values, defined by the `FUNENTRY` instruction.
    pub params: Vec<ValueId>,
    /// Blocks in layout order; `blocks[0]` is the entry block.
    pub blocks: Vec<BlockId>,
    /// The unique `FUNENTRY` instruction.
    pub entry_inst: InstId,
    /// The unique `FUNEXIT` instruction.
    pub exit_inst: InstId,
    /// The block holding `exit_inst`.
    pub exit_block: BlockId,
}

impl Function {
    /// The entry block.
    pub fn entry_block(&self) -> BlockId {
        self.blocks[0]
    }
}

/// A whole program.
///
/// Construct with [`crate::ProgramBuilder`] or [`crate::parse_program`];
/// all arenas are public for read access by the analyses.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// All functions.
    pub functions: IndexVec<FuncId, Function>,
    /// All basic blocks.
    pub blocks: IndexVec<BlockId, Block>,
    /// All instructions.
    pub insts: IndexVec<InstId, Inst>,
    /// All top-level values.
    pub values: IndexVec<ValueId, Value>,
    /// All abstract objects (bases first, then materialised fields).
    pub objects: IndexVec<ObjId, Object>,
    /// Global variables as `(pointer value, storage object)` pairs.
    pub globals: Vec<(ValueId, ObjId)>,
    /// The program entry function (`main`).
    pub entry: Option<FuncId>,
    /// Field-object lookup: `(base, offset) -> field object`.
    pub(crate) field_map: FxHashMap<(ObjId, u32), ObjId>,
    /// Function-address object per function (for functions whose address
    /// is taken).
    pub(crate) func_obj: FxHashMap<FuncId, ObjId>,
    /// The singleton null pseudo-object, if any `null` occurs.
    pub(crate) null_obj: Option<ObjId>,
    /// Source spans (`line`, `column`), 1-based, for instructions that
    /// came from the textual form. Builder-made programs leave this empty.
    pub(crate) inst_spans: FxHashMap<InstId, (u32, u32)>,
}

impl Program {
    /// Looks up a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions.iter_enumerated().find(|(_, f)| f.name == name).map(|(id, _)| id)
    }

    /// The entry function, panicking with a clear message if absent.
    ///
    /// # Panics
    ///
    /// Panics if the program has no entry function.
    pub fn entry_function(&self) -> FuncId {
        self.entry.expect("program has no entry function (expected `@main`)")
    }

    /// The abstract field object for `(base, offset)`.
    ///
    /// Follows the paper's `[FIELD-ADDR]` normalisation: fields of fields
    /// collapse onto the base (`o.f_i.f_j == o.f_{i+j}`), offsets are
    /// clamped to the object's declared field count, and scalar objects
    /// absorb field accesses.
    pub fn field_object(&self, base: ObjId, offset: u32) -> ObjId {
        let (root, total) = match self.objects[base].kind {
            ObjKind::Field { base: root, offset: prior } => (root, prior.saturating_add(offset)),
            _ => (base, offset),
        };
        let nf = self.objects[root].num_fields;
        if nf <= 1 || total == 0 {
            return if total == 0 { base } else { root };
        }
        let clamped = total.min(nf - 1);
        if clamped == 0 {
            return root;
        }
        *self
            .field_map
            .get(&(root, clamped))
            .expect("field objects are materialised for every declared offset")
    }

    /// The function-address object of `func`, if its address is taken
    /// anywhere in the program.
    pub fn function_object(&self, func: FuncId) -> Option<ObjId> {
        self.func_obj.get(&func).copied()
    }

    /// If `obj` is a function-address object, the function it denotes.
    pub fn object_as_function(&self, obj: ObjId) -> Option<FuncId> {
        match self.objects[obj].kind {
            ObjKind::Function(f) => Some(f),
            _ => None,
        }
    }

    /// The singleton null pseudo-object, if the program contains `null`.
    pub fn null_object(&self) -> Option<ObjId> {
        self.null_obj
    }

    /// The source span (`line`, `column`) of `inst`, if it came from the
    /// textual form.
    pub fn inst_span(&self, inst: InstId) -> Option<(u32, u32)> {
        self.inst_spans.get(&inst).copied()
    }

    /// Records the source span of `inst` (used by the parser).
    pub fn set_inst_span(&mut self, inst: InstId, line: u32, col: u32) {
        self.inst_spans.insert(inst, (line, col));
    }

    /// The base object of `obj` (itself unless it is a field).
    pub fn base_object(&self, obj: ObjId) -> ObjId {
        match self.objects[obj].kind {
            ObjKind::Field { base, .. } => base,
            _ => obj,
        }
    }

    /// Iterates the instruction ids of `func` in block layout order.
    pub fn func_insts(&self, func: FuncId) -> impl Iterator<Item = InstId> + '_ {
        self.functions[func].blocks.iter().flat_map(move |&b| self.blocks[b].insts.iter().copied())
    }

    /// Total number of instructions.
    pub fn inst_count(&self) -> usize {
        self.insts.len()
    }

    /// A human-readable location string for diagnostics.
    pub fn inst_location(&self, inst: InstId) -> String {
        let i = &self.insts[inst];
        format!("{} in @{}:{}", inst, self.functions[i.func].name, self.blocks[i.block].name)
    }
}
