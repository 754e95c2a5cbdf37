(** Structured construction of partial-SSA functions.

    The builder keeps a cursor (the current fall-through instruction) and
    offers structured control flow ([if_], [while_]), so clients — tests, the
    workload generator, and the mini-C lowering — can only produce CFGs where
    every instruction is reachable. Multiple [return]s are joined through a
    PHI before the function's single EXIT, mirroring LLVM's
    [UnifyFunctionExitNodes] which the paper relies on. *)

type t

val create : Prog.t -> name:string -> param_names:string list -> t
val prog : t -> Prog.t
val fn : t -> Prog.func
val params : t -> Inst.var list

val fresh_top : t -> string -> Inst.var

(* Instruction helpers; each appends at the cursor. [?name] names the
   defined variable. *)

val alloc : t -> ?name:string -> kind:Prog.obj_kind -> string -> Inst.var * Inst.var
(** [alloc b ~kind oname] emits [p = alloca_o]; returns [(p, o)]. *)

val funaddr : t -> ?name:string -> Prog.func -> Inst.var
(** [p = &f]; marks [f] address-taken. *)

val copy : t -> ?name:string -> Inst.var -> Inst.var
val phi : t -> ?name:string -> Inst.var list -> Inst.var
val field : t -> ?name:string -> base:Inst.var -> int -> Inst.var
val load : t -> ?name:string -> Inst.var -> Inst.var
val store : t -> ptr:Inst.var -> Inst.var -> unit

val call : t -> ?name:string -> callee:Inst.callee -> Inst.var list -> Inst.var
(** Call with a used result. *)

val call_void : t -> callee:Inst.callee -> Inst.var list -> unit

(* Structured control flow ------------------------------------------------ *)

val if_ : t -> then_:(t -> unit) -> else_:(t -> unit) -> unit
(** Non-deterministic two-way branch (pointer analysis ignores conditions). *)

val while_ : t -> body:(t -> unit) -> unit
(** Loop with a non-deterministic exit: header -> body -> header, and
    header -> continuation. *)

val do_while_ : t -> body:(t -> unit) -> unit
(** Post-tested loop: the body executes at least once; a back edge returns
    to its start and execution continues from the body's end. *)

val return : t -> Inst.var option -> unit
(** Terminates the current arm. Emitting after [return] in the same arm
    raises [Failure]. *)

val finish : t -> unit
(** Seals the function: joins returns (inserting a PHI if several values are
    returned), connects the tail to EXIT, sets [fn.ret]. Must be called
    exactly once. *)

(* Escape hatches for the textual-IR parser -------------------------------- *)

val emit : t -> Inst.t -> int
val cursor : t -> int option
val add_edge : t -> int -> int -> unit
