(** Parser for the textual IR emitted by {!Printer}.

    The format is line-oriented:

    {v
    entry __init
    global %g
    func main(%p) -> %r {
      L0: entry  -> L2
      L1: exit
      L2: %x = alloc @stack:o  -> L3
      L3: %y = phi(%x, %p)  -> L4
      L4: store %y %x  -> L1
    }
    v}

    Instruction labels must be consecutive from [L0]; [L0] must be [entry]
    and [L1] [exit] (as produced by construction). A line without an explicit
    successor list falls through to the next instruction line, which makes
    hand-written test programs compact. [#] starts a comment. *)

exception Parse_error of int * string
(** Line number (1-based) and message. *)

val parse : string -> Prog.t
