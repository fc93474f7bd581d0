// Page geometry, without a package doc comment (package_docs).
package memsim

const PageSize = 4096
