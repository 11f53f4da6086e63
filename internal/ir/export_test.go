package ir

// SelfReg returns the register holding the receiver, or NoReg.
func (f *Func) SelfReg() Reg {
	if f.Class == nil {
		return NoReg
	}
	return 0
}
