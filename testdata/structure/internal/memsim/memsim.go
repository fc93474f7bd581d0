// Page geometry, without a package doc comment (package_docs).
package memsim

const PageSize = 4096

func GetF64(frame []byte, off int) float64 { return 0 }
